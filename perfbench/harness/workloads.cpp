#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "client/client.hpp"
#include "client/view.hpp"
#include "history.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "probes.hpp"
#include "server/replication.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "util/rand.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using iw::MsgType;
using iw::client::Client;
using iw::client::ClientSegment;
using iw::client::ClientStats;
using iw::client::View;
using iw::server::SegmentServer;
using iw::server::WalReplicator;

struct Spec {
  const char* name;
  const char* why;
  int writers;        // native writers, one segment each
  int readers;        // sparc32 Full-coherence readers of segment 0
  uint32_t records;   // records per segment
  uint32_t touch;     // records stamped per write critical section
  uint32_t relink;    // of those, links re-aimed
  int64_t period_ns;  // open-loop writer period; 0 = closed loop
  bool replicate;     // replication_factor 1 to a TCP replica
  uint32_t checkpoint_every;
  /// Writer and readers take turns: one commit, then kTurnReads reads by
  /// every reader. No read_lock is then in flight while a writer acquires.
  bool turns = false;
};

constexpr Spec kSpecs[] = {
    {"commit_rf1",
     "2 native writers stamp 64 of 16384 linked records per commit with the "
     "WAL on and rf=1: every write-path stage does real work",
     2, 0, 16384, 64, 0, 0, true, 0},
    {"read_hetero",
     "open-loop native writer every 5 ms and 3 sparc32 Full readers: lock "
     "caching, revocation, diff cache, big-endian translate and swizzle-in",
     1, 3, 16384, 64, 8, 5'000'000, false, 0},
    {"read_turns",
     "1 native writer and 3 sparc32 Full readers take turns: each commit "
     "revokes 3 idle cached locks, then every reader refetches once and "
     "re-reads from its lock cache",
     1, 3, 16384, 64, 8, 0, false, 0, true},
    {"small_sharded",
     "3 native writers on 3 one-page segments, 1 record per commit, WAL on: "
     "per-message costs and per-segment locks dominate",
     3, 0, 64, 1, 0, 0, false, 256},
};

// Set-ups per run; setup_s is their median.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 99;
constexpr double kSetupBudgetS = 2.0;
constexpr int kRecoveries = 15;     // recover() repetitions; recover_ms median
constexpr int kTailCommits = 16;    // commits journaled after the last checkpoint
constexpr int kReadSample = 16;     // random records checked per read
constexpr int kTurnReads = 4;       // reads per reader per turn (read_turns)
constexpr double kTurnCommitsPerS = 20'000;  // ack-time capacity, read_turns
constexpr int64_t kSliceNs = 250'000'000;  // traced/untraced alternation
constexpr int64_t kTraceGapNs = 1'000'000;  // per-agent trace sampling gap
constexpr size_t kReadChunk = 1 << 16;      // reads checked per stale-check pass
constexpr size_t kMaxProblems = 8;
constexpr int64_t kSpinNs = 200'000;  // open-loop writer spins this long before due
// End-to-end statistics are medians over slices of this many seconds.
constexpr double kWindowS = 2.0;

const iw::TypeDescriptor* rec_type(Client& c) {
  iw::TypeRegistry& t = c.types();
  return t.struct_builder("rec")
      .field("id", t.primitive(iw::PrimitiveKind::kInt32))
      .field("x", t.primitive(iw::PrimitiveKind::kFloat64))
      .field("y", t.primitive(iw::PrimitiveKind::kFloat64))
      .field("tag", t.string_type(16))
      .self_pointer_field("next")
      .finish();
}

/// Shared state of one segment: written by its writer, read by readers and
/// by the post-run checks.
struct SegState {
  std::string url;
  uint32_t index = 0;
  uint32_t base = 0;  // version after populate
  std::atomic<uint32_t> acked{0};
  /// Commit-ack instant per version (offset from base); read workloads only.
  std::unique_ptr<std::atomic<int64_t>[]> ack_ns;
  size_t ack_cap = 0;
  std::vector<uint32_t> shadow_x;     // version that last stamped record i
  std::vector<uint32_t> shadow_next;  // link target of record i
};

struct Agent {
  std::unique_ptr<Client> client;
  ClientSegment* seg = nullptr;
  SegState* state = nullptr;
  Rec* recs = nullptr;                     // writers: the native block
  const iw::client::BlockHeader* block = nullptr;  // readers
  Windowed cs_us[2];  // critical sections, [in a slice with the tracer on]
  Windowed lag_us;
  Windowed late_us;
  Windowed response_us;  // open loop: due time to write_unlock return
  std::vector<ReadObs> reads;  // recent reads; folded into `stale` in chunks
  uint64_t stale = 0;
  int64_t next_traced = 0;
  uint32_t last_seen = 0;
  uint64_t ops = 0;
  uint64_t failures = 0;
  int64_t last_end = 0;
  std::vector<std::string> problems;

  /// Trace sampling: while the tracer records, an agent records at most one
  /// critical section per kTraceGapNs, so span volume stays bounded at any
  /// operation rate. Mutes the calling thread for the others.
  void sample_trace(int64_t now) {
    bool sampled = now >= next_traced;
    if (sampled && Tracer::global().enabled()) next_traced = now + kTraceGapNs;
    Tracer::mute_thread(!sampled);
  }

  void fail(std::string what) {
    ++failures;
    if (problems.size() < kMaxProblems) problems.push_back(std::move(what));
  }
};

class Cluster {
 public:
  Cluster(const Spec& spec, const fs::path& dir) : dir_(dir) {
    fs::create_directories(dir / "primary");
    if (spec.replicate) {
      fs::create_directories(dir / "replica");
      SegmentServer::Options ro;
      ro.checkpoint_dir = (dir / "replica").string();
      replica_ = std::make_unique<SegmentServer>(ro);
      replica_probe_ = std::make_unique<TimingCore>(*replica_, "replica.handle");
      replica_tcp_ = std::make_unique<iw::TcpServer>(*replica_probe_, 0);
      replicator_ = std::make_shared<WalReplicator>(WalReplicator::Options{});
      replicator_->add_replica("replica", [this] {
        return connect_bound(*replica_probe_, replica_tcp_->port(), nullptr,
                             "repl.append");
      });
    }
    SegmentServer::Options po;
    po.checkpoint_dir = (dir / "primary").string();
    po.checkpoint_every = spec.checkpoint_every;
    po.replicator = replicator_;
    primary_ = std::make_unique<SegmentServer>(po);
    primary_probe_ = std::make_unique<TimingCore>(*primary_, "server.handle");
    primary_tcp_ = std::make_unique<iw::TcpServer>(*primary_probe_, 0);
  }
  ~Cluster() { stop(); }

  /// Closes every connection and stops the replication links.
  void stop() {
    if (primary_tcp_) primary_tcp_->shutdown();
    if (replicator_) replicator_->shutdown();
    if (replica_tcp_) replica_tcp_->shutdown();
  }

  Client::ChannelFactory factory() {
    return [this](const std::string&) {
      return connect_bound(*primary_probe_, primary_tcp_->port(), &client_rpc_,
                           "rpc");
    };
  }

  SegmentServer& primary() { return *primary_; }
  SegmentServer* replica() { return replica_.get(); }
  WalReplicator* replicator() { return replicator_.get(); }
  iw::ReactorStats reactor_stats() const { return primary_tcp_->stats(); }
  const RpcCounters& client_rpc() const { return client_rpc_; }
  fs::path primary_dir() const { return dir_ / "primary"; }

 private:
  fs::path dir_;
  RpcCounters client_rpc_;
  std::unique_ptr<SegmentServer> replica_;
  std::unique_ptr<TimingCore> replica_probe_;
  std::unique_ptr<iw::TcpServer> replica_tcp_;
  std::shared_ptr<WalReplicator> replicator_;
  std::unique_ptr<SegmentServer> primary_;
  std::unique_ptr<TimingCore> primary_probe_;
  std::unique_ptr<iw::TcpServer> primary_tcp_;
};

struct World {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<SegState>> segs;
  std::vector<std::unique_ptr<Agent>> writers;
  std::vector<std::unique_ptr<Agent>> readers;

  /// Clients go first: their channels must close before the servers stop.
  void tear_down() {
    readers.clear();
    writers.clear();
    if (cluster) cluster->stop();
    cluster.reset();
  }
  ~World() { tear_down(); }
};

void populate(Agent& a, const Spec& spec) {
  Client& c = *a.client;
  const iw::TypeDescriptor* rec = rec_type(c);
  if (rec->local_size() != sizeof(Rec)) {
    throw std::logic_error("native record layout disagrees with the registry");
  }
  const iw::TypeDescriptor* arr = c.types().array_of(rec, spec.records);
  SegState& s = *a.state;
  c.write_lock(a.seg);
  uint32_t v = a.seg->version() + 1;
  a.recs = static_cast<Rec*>(c.malloc_block(a.seg, arr, "recs"));
  s.shadow_x.assign(spec.records, v);
  s.shadow_next.resize(spec.records);
  for (uint32_t i = 0; i < spec.records; ++i) {
    uint32_t target = (i + 1) % spec.records;
    stamp(a.recs[i], i, v, a.recs, target);
    s.shadow_next[i] = target;
  }
  c.write_unlock(a.seg);
  if (a.seg->version() != v) {
    throw std::runtime_error("populate committed version " +
                             std::to_string(a.seg->version()) + ", expected " +
                             std::to_string(v));
  }
  s.base = v;
  s.acked.store(v);
}

std::unique_ptr<World> set_up(const Spec& spec, const fs::path& dir,
                              size_t ack_cap) {
  auto w = std::make_unique<World>();
  w->cluster = std::make_unique<Cluster>(spec, dir);
  for (int i = 0; i < spec.writers; ++i) {
    auto s = std::make_unique<SegState>();
    s->index = static_cast<uint32_t>(i);
    s->url = "primary/seg" + std::to_string(i);
    if (ack_cap > 0) {
      s->ack_cap = ack_cap;
      s->ack_ns = std::make_unique<std::atomic<int64_t>[]>(ack_cap);
    }
    auto a = std::make_unique<Agent>();
    a->client = std::make_unique<Client>(w->cluster->factory());
    a->state = s.get();
    a->seg = a->client->open_segment(s->url);
    populate(*a, spec);
    w->segs.push_back(std::move(s));
    w->writers.push_back(std::move(a));
  }
  for (int i = 0; i < spec.readers; ++i) {
    Client::Options opts;
    opts.platform = iw::Platform::sparc32();
    auto a = std::make_unique<Agent>();
    a->client = std::make_unique<Client>(w->cluster->factory(), opts);
    a->state = w->segs.front().get();
    a->seg = a->client->open_segment(a->state->url, false);
    a->client->set_coherence(a->seg, iw::CoherencePolicy::full());
    a->client->read_lock(a->seg);  // first fetch
    a->block = a->seg->heap().find_by_name("recs");
    a->client->read_unlock(a->seg);
    if (a->block == nullptr) throw std::runtime_error("reader found no records");
    a->last_seen = a->seg->version();
    w->readers.push_back(std::move(a));
  }
  return w;
}

/// One commit's new record values, prepared outside the critical section
/// so that `modify` times only the stores.
struct Prepared {
  uint32_t version = 0;
  std::vector<uint32_t> idx;
  std::vector<uint32_t> target;
  std::vector<Rec> vals;
};

Prepared prepare(const Spec& spec, uint64_t seed, const Agent& a) {
  const SegState& s = *a.state;
  Prepared p;
  p.version = s.acked.load(std::memory_order_relaxed) + 1;
  CommitPlan plan =
      plan_commit(seed, s.index, p.version, spec.records, spec.touch, spec.relink);
  p.idx = plan.touched;
  p.vals.resize(p.idx.size());
  for (size_t i = 0; i < p.idx.size(); ++i) {
    uint32_t idx = p.idx[i];
    uint32_t target = i < plan.relinks.size() ? plan.relinks[i] : s.shadow_next[idx];
    std::memset(&p.vals[i], 0, sizeof(Rec));
    stamp(p.vals[i], idx, p.version, a.recs, target);
    p.target.push_back(target);
  }
  return p;
}

/// One write critical section, timed from write_lock entry. `due` is the
/// open-loop due time (0 for a closed loop); when set, the response time
/// from it, which counts the backlog a stall leaves, is recorded too.
void write_cs(Agent& a, const Spec& spec, uint64_t seed, int64_t due) {
  SegState& s = *a.state;
  Prepared p = prepare(spec, seed, a);
  Tracer& tracer = Tracer::global();
  ++a.ops;
  int64_t t0 = now_ns();
  // Traced versus untraced compares whole slices, sampled or not.
  const bool traced = tracer.enabled();
  a.sample_trace(t0);
  uint64_t root = tracer.open("write_cs");
  try {
    {
      Scope span("write_lock");
      a.client->write_lock(a.seg);
    }
    {
      Scope span("modify");
      for (size_t i = 0; i < p.idx.size(); ++i) {
        std::memcpy(&a.recs[p.idx[i]], &p.vals[i], sizeof(Rec));
      }
    }
    {
      Scope span("write_unlock");
      a.client->write_unlock(a.seg);
    }
  } catch (const std::exception& e) {
    tracer.close(root);
    a.fail(std::string("write: ") + e.what());
    return;
  }
  int64_t t1 = now_ns();
  tracer.close(root);
  a.last_end = t1;
  if (a.seg->version() != p.version) {
    a.fail("write committed version " + std::to_string(a.seg->version()) +
           ", expected " + std::to_string(p.version));
    return;
  }
  for (size_t i = 0; i < p.idx.size(); ++i) {
    s.shadow_x[p.idx[i]] = p.version;
    s.shadow_next[p.idx[i]] = p.target[i];
  }
  if (s.ack_ns && p.version - s.base < s.ack_cap) {
    s.ack_ns[p.version - s.base].store(t1, std::memory_order_relaxed);
  }
  s.acked.store(p.version, std::memory_order_release);
  a.cs_us[traced].add(t1, static_cast<double>(t1 - t0) / 1e3);
  if (due != 0) a.response_us.add(t1, static_cast<double>(t1 - due) / 1e3);
}

/// Reads records of one block through View on the reader's platform.
class RecordReader {
 public:
  RecordReader(Client& c, const iw::client::BlockHeader* block)
      : view_(c, block), base_(block->data()),
        stride_bytes_(block->type->element_stride()),
        count_(block->type->count()) {
    // Primitive units are machine-independent and follow field order (id,
    // x, y, tag, next); x and y may travel as one merged "x..y" array field
    // when isomorphic descriptors are on, so they are addressed by unit.
    u0_ = view_.unit_of("[0].id");
    stride_units_ = view_.unit_of("[1].id") - u0_;
    if (stride_units_ != 5) throw std::logic_error("unexpected record unit layout");
  }

  RecordVals get(uint32_t i) const {
    uint64_t u = u0_ + i * stride_units_;
    RecordVals r;
    r.id = view_.get_int(u);
    r.x = view_.get_f64(u + 1);
    r.y = view_.get_f64(u + 2);
    r.tag = view_.get_string(u + 3);
    auto* p = static_cast<const uint8_t*>(view_.get_ptr(u + 4));
    if (p >= base_ && p < base_ + stride_bytes_ * count_ &&
        (p - base_) % stride_bytes_ == 0) {
      r.next = (p - base_) / stride_bytes_;
    }
    return r;
  }

 private:
  View view_;
  const uint8_t* base_;
  uint64_t stride_bytes_;
  uint64_t count_;
  uint64_t u0_ = 0;
  uint64_t stride_units_ = 0;
};

void read_cs(Agent& a, const Spec& spec, uint64_t seed, const RecordReader& rr,
             iw::SplitMix64& rng) {
  SegState& s = *a.state;
  std::vector<uint32_t> sample(kReadSample);
  for (uint32_t& idx : sample) idx = static_cast<uint32_t>(rng.below(spec.records));
  Tracer& tracer = Tracer::global();
  ++a.ops;
  uint32_t floor = s.acked.load(std::memory_order_acquire);
  int64_t t0 = now_ns();
  const bool traced = tracer.enabled();
  a.sample_trace(t0);
  uint64_t root = tracer.open("read_cs");
  int64_t seen_at = 0;
  uint32_t v = 0;
  std::string bad;
  try {
    {
      Scope span("read_lock");
      a.client->read_lock(a.seg);
    }
    seen_at = now_ns();
    v = a.seg->version();
    {
      Scope span("check");
      bad = check_read([&](uint32_t i) { return rr.get(i); }, seed, s.index, v,
                       s.base, spec.records, spec.touch, spec.relink, sample);
    }
    {
      Scope span("read_unlock");
      a.client->read_unlock(a.seg);
    }
  } catch (const std::exception& e) {
    tracer.close(root);
    a.fail(std::string("read: ") + e.what());
    return;
  }
  int64_t t1 = now_ns();
  tracer.close(root);
  a.last_end = t1;
  a.cs_us[traced].add(t1, static_cast<double>(t1 - t0) / 1e3);
  if (!bad.empty()) {
    a.fail("torn read: " + bad);
  } else {
    // Staleness is judged by the history checker; failures add it at the end.
    a.reads.push_back({floor, v});
    if (a.reads.size() >= kReadChunk) {
      a.stale += count_stale(a.reads);
      a.reads.clear();
    }
    if (v < floor && a.problems.size() < kMaxProblems) {
      a.problems.push_back("stale Full read: version " + std::to_string(v) +
                           " after ack of " + std::to_string(floor));
    }
  }
  for (uint32_t u = std::max(a.last_seen, s.base) + 1; u <= v; ++u) {
    int64_t ack = u - s.base < s.ack_cap
                      ? s.ack_ns[u - s.base].load(std::memory_order_relaxed)
                      : 0;
    int64_t lag = ack > 0 ? std::max<int64_t>(0, seen_at - ack) : 0;
    a.lag_us.add(seen_at, static_cast<double>(lag) / 1e3);
  }
  a.last_seen = std::max(a.last_seen, v);
}

/// Reads every record of a recovered segment through an in-process native
/// client and compares it with the writer's shadow. Returns "" or what is
/// wrong.
std::string verify_recovered(SegmentServer& server, const SegState& s,
                             uint32_t records) {
  Client c([&server](const std::string&) {
    return std::make_shared<iw::InProcChannel>(server);
  });
  ClientSegment* seg = c.open_segment(s.url, false);
  c.read_lock(seg);
  std::string bad;
  const iw::client::BlockHeader* b = seg->heap().find_by_name("recs");
  if (b == nullptr) {
    bad = s.url + ": no records after recovery";
  } else {
    const auto* recs = reinterpret_cast<const Rec*>(b->data());
    for (uint32_t i = 0; i < records && bad.empty(); ++i) {
      // Integer arithmetic: a mis-swizzled pointer may point anywhere.
      auto offset = reinterpret_cast<intptr_t>(recs[i].next) -
                    reinterpret_cast<intptr_t>(recs);
      RecordVals r{recs[i].id, recs[i].x, recs[i].y,
                   std::string(recs[i].tag, strnlen(recs[i].tag, sizeof recs[i].tag)),
                   offset % static_cast<intptr_t>(sizeof(Rec)) == 0
                       ? offset / static_cast<intptr_t>(sizeof(Rec))
                       : -1};
      if (r.x != s.shadow_x[i] || r.next != s.shadow_next[i]) {
        bad = s.url + ": record " + std::to_string(i) + " recovered x " +
              std::to_string(r.x) + " next " + std::to_string(r.next) +
              ", acknowledged x " + std::to_string(s.shadow_x[i]) + " next " +
              std::to_string(s.shadow_next[i]);
      } else {
        bad = check_record(i, r, seg->version());
      }
    }
  }
  c.read_unlock(seg);
  return bad;
}

// ------------------------------------------------------------ counters

ClientStats sum_stats(const std::vector<std::unique_ptr<Agent>>& agents) {
  ClientStats t;
  for (const auto& a : agents) {
    ClientStats s = a->client->stats();
#define PB_ADD(f) t.f += s.f;
    PB_ADD(read_lock_server_calls) PB_ADD(lock_cache_hits) PB_ADD(lock_cache_misses)
    PB_ADD(revokes_acked) PB_ADD(updates_applied) PB_ADD(diffs_collected)
    PB_ADD(diffs_compressed) PB_ADD(word_diff_ns) PB_ADD(translate_ns)
    PB_ADD(collect_ns) PB_ADD(apply_ns) PB_ADD(swizzles_in) PB_ADD(units_sent)
    PB_ADD(diff_releases) PB_ADD(no_diff_releases) PB_ADD(bytes_decoded)
    PB_ADD(plan_cache_misses) PB_ADD(isomorphic_fast_path_blocks)
    PB_ADD(reconnects) PB_ADD(retried_calls) PB_ADD(call_timeouts)
#undef PB_ADD
  }
  return t;
}

uint64_t wire_bytes(const World& w) {
  uint64_t n = 0;
  for (const auto* group : {&w.writers, &w.readers}) {
    for (const auto& a : *group) {
      n += a->client->bytes_sent() + a->client->bytes_received();
    }
  }
  return n;
}

iw::server::StoreStats store_stats(const World& w) {
  iw::server::StoreStats t;
  for (const auto& s : w.segs) {
    iw::server::StoreStats x = w.cluster->primary().segment_stats(s->url);
    t.apply_ns += x.apply_ns;
    t.diffs_applied += x.diffs_applied;
    t.collect_ns += x.collect_ns;
    t.diffs_collected += x.diffs_collected;
    t.prediction_hits += x.prediction_hits;
    t.prediction_misses += x.prediction_misses;
    t.diff_cache_hits += x.diff_cache_hits;
    t.diff_cache_misses += x.diff_cache_misses;
  }
  return t;
}

struct Snapshot {
  uint64_t wire = 0;
  std::array<uint64_t, 64> client_rpc{};
  SegmentServer::Stats server;
  iw::server::StoreStats store;
  iw::ReactorStats reactor;
  WalReplicator::Stats repl;
};

Snapshot snapshot(const World& w) {
  Snapshot s;
  s.wire = wire_bytes(w);
  for (size_t i = 0; i < s.client_rpc.size(); ++i) {
    s.client_rpc[i] = w.cluster->client_rpc().calls[i].load();
  }
  s.server = w.cluster->primary().stats();
  s.store = store_stats(w);
  s.reactor = w.cluster->reactor_stats();
  if (w.cluster->replicator() != nullptr) s.repl = w.cluster->replicator()->stats();
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
/// softirq steal (ticks); zeros where it cannot be read.
std::array<uint64_t, 8> cpu_ticks() {
  std::array<uint64_t, 8> t{};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (size_t i = 0; i < t.size(); ++i) t[i] = v[i];
    }
    std::fclose(f);
  }
  return t;
}

double rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------ span metrics

struct SpanStats {
  std::unordered_map<std::string, std::vector<double>> by_key;  // microseconds
  uint64_t ledger_roots = 0;
  uint64_t ledger_violations = 0;
  std::vector<double> unattributed_us;
};

std::string type_key(const char* prefix, uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kAcquireWrite: return std::string(prefix) + ".acquire_write";
    case MsgType::kReleaseWrite: return std::string(prefix) + ".release_write";
    case MsgType::kAcquireRead: return std::string(prefix) + ".acquire_read";
    case MsgType::kWalAppend: return std::string(prefix) + ".wal_append";
    default: return std::string(prefix) + ".other";
  }
}

SpanStats summarise(std::vector<Span> spans) {
  SpanStats out;
  link_by_request_id(spans);
  std::unordered_map<uint64_t, int64_t> self = self_times(spans);
  std::unordered_set<uint64_t> has_server_child;
  for (const Span& s : spans) {
    if (s.side == Side::kServer && s.parent != 0) has_server_child.insert(s.parent);
  }
  for (const Span& s : spans) {
    double us = static_cast<double>(s.dur()) / 1e3;
    std::string name = s.name;
    if (name == "rpc") {
      out.by_key[type_key("net", s.msg_type)].push_back(us);
      if (has_server_child.count(s.id)) {
        out.by_key["net.transit"].push_back(static_cast<double>(self[s.id]) / 1e3);
      }
    } else if (name == "server.handle") {
      out.by_key[type_key("server", s.msg_type)].push_back(us);
    } else if (name == "repl.append") {
      out.by_key["repl.append"].push_back(us);
    } else {
      out.by_key[name].push_back(us);
      if (name == "write_unlock") {
        out.by_key["release_self"].push_back(static_cast<double>(self[s.id]) / 1e3);
      }
    }
  }
  LedgerCheck ledger = check_ledger(spans, "write_cs");
  out.ledger_roots = ledger.roots;
  out.ledger_violations = ledger.violations;
  for (int64_t ns : ledger.unattributed_ns) {
    out.unattributed_us.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

Windowed merged(const std::vector<std::unique_ptr<Agent>>& agents,
                Windowed Agent::*field, const Windowed& empty) {
  Windowed out = empty;
  for (const auto& a : agents) out.merge((*a).*field);
  return out;
}

/// Critical sections of `agents`: untraced (0), traced (1), or both (-1).
Windowed merged_cs(const std::vector<std::unique_ptr<Agent>>& agents, int traced,
                   const Windowed& empty) {
  Windowed out = empty;
  for (const auto& a : agents) {
    for (int t = 0; t < 2; ++t) {
      if (traced < 0 || traced == t) out.merge(a->cs_us[t]);
    }
  }
  return out;
}

/// A writer's timed loop: closed (back to back) or open (one commit per
/// period, each timed from its due time, lateness recorded). Either way no
/// commit starts after `end`, so a backlog cannot stretch the run.
void run_writer(Agent& a, const Spec& spec, uint64_t seed, int64_t start,
                int64_t end) {
  for (int64_t k = 0; now_ns() < end; ++k) {
    int64_t due = 0;
    if (spec.period_ns > 0) {
      due = start + k * spec.period_ns;
      if (due >= end) break;
      // Sleep to just short of the due time, then spin: a sleeping thread's
      // wake-up latency is the generator's, not the system's.
      int64_t now = now_ns();
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - now));
      }
      while (now_ns() < due) {
      }
      a.late_us.add(due, static_cast<double>(now_ns() - due) / 1e3);
    }
    write_cs(a, spec, seed, due);
  }
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  const Spec& spec = find_spec(config.workload);
  RunResult r;
  r.why = spec.why;
  r.config = {{"writers", std::to_string(spec.writers)},
              {"readers", std::to_string(spec.readers)},
              {"records_per_segment", std::to_string(spec.records)},
              {"records_per_commit", std::to_string(spec.touch)},
              {"relinks_per_commit", std::to_string(spec.relink)},
              {"writer_period_us", std::to_string(spec.period_ns / 1000)},
              {"reads_per_turn", std::to_string(spec.turns ? kTurnReads : 0)},
              {"replication_factor", spec.replicate ? "1" : "0"},
              {"checkpoint_every", std::to_string(spec.checkpoint_every)},
              {"recoveries", std::to_string(kRecoveries)},
              {"tail_commits", std::to_string(kTailCommits)}};
  // A directory of this run's own inside work_dir; only it is ever removed.
  const fs::path root =
      fs::path(config.work_dir) / ("perfbench-" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);

  const double commits_per_s =
      spec.turns ? kTurnCommitsPerS
                 : spec.period_ns > 0 ? 1e9 / static_cast<double>(spec.period_ns) : 0;
  const size_t ack_cap =
      commits_per_s > 0
          ? static_cast<size_t>(config.seconds * commits_per_s) + kTailCommits + 1024
          : 0;

  // Set up at least kMinSetups times and until kSetupBudgetS of set-up time
  // is spent (at most kMaxSetups); the last world is the one measured.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<World> world;
  for (int i = 0;; ++i) {
    fs::path dir = root / ("setup" + std::to_string(i));
    int64_t t0 = now_ns();
    world = set_up(spec, dir, ack_cap);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
    if (i + 1 >= kMaxSetups || (i + 1 >= kMinSetups && setup_total_s >= kSetupBudgetS)) {
      break;
    }
    world->tear_down();
    world.reset();
    fs::remove_all(dir);
  }
  World& w = *world;
  uint64_t setup_plan_misses = sum_stats(w.writers).plan_cache_misses +
                               sum_stats(w.readers).plan_cache_misses;

  // ---- timed phase
  for (auto* group : {&w.writers, &w.readers}) {
    for (auto& a : *group) a->client->reset_stats();
  }
  Snapshot before = snapshot(w);
  const std::array<uint64_t, 8> ticks_before = cpu_ticks();
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(config.seconds * 1e9);
  const int windows = std::max(1, static_cast<int>(config.seconds / kWindowS));
  const Windowed empty(start, end, windows);
  for (auto* group : {&w.writers, &w.readers}) {
    for (auto& a : *group) {
      a->cs_us[0] = a->cs_us[1] = a->lag_us = a->late_us = a->response_us = empty;
    }
  }
  // Turns: each round is a writer phase and a reader phase; the round's
  // last arrival decides whether another round starts, so all agree.
  std::atomic<int64_t> phase{0};
  std::atomic<bool> last_round{false};
  auto on_phase = [&]() noexcept {
    if (++phase % 2 == 0) last_round = now_ns() >= end;
  };
  std::barrier turn(static_cast<std::ptrdiff_t>(w.writers.size() + w.readers.size()),
                    on_phase);
  std::vector<std::thread> threads;
  for (auto& a : w.writers) {
    Agent* ag = a.get();
    threads.emplace_back([&, ag] {
      try {
        if (!spec.turns) {
          run_writer(*ag, spec, config.seed, start, end);
          return;
        }
        do {
          write_cs(*ag, spec, config.seed, 0);
          turn.arrive_and_wait();  // the readers' turn
          turn.arrive_and_wait();
        } while (!last_round);
      } catch (const std::exception& e) {
        ag->fail(std::string("writer stopped: ") + e.what());
        if (spec.turns) turn.arrive_and_drop();
      }
    });
  }
  for (size_t i = 0; i < w.readers.size(); ++i) {
    Agent* ag = w.readers[i].get();
    threads.emplace_back([&, ag, i] {
      try {
        RecordReader rr(*ag->client, ag->block);
        iw::SplitMix64 rng(config.seed * 31 + i + 1);
        if (!spec.turns) {
          while (now_ns() < end) read_cs(*ag, spec, config.seed, rr, rng);
          return;
        }
        do {
          turn.arrive_and_wait();  // the writer's turn
          for (int k = 0; k < kTurnReads; ++k) read_cs(*ag, spec, config.seed, rr, rng);
          turn.arrive_and_wait();
        } while (!last_round);
      } catch (const std::exception& e) {
        ag->fail(std::string("reader stopped: ") + e.what());
        if (spec.turns) turn.arrive_and_drop();
      }
    });
  }
  if (config.trace) {
    bool on = false;
    for (int64_t t = start; t < end; t += kSliceNs) {
      on = !on;
      tracer.set_enabled(on);
      int64_t until = std::min(end, t + kSliceNs);
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now_ns()));
    }
  }
  for (auto& t : threads) t.join();
  tracer.set_enabled(false);
  int64_t window_end = start;
  for (auto* group : {&w.writers, &w.readers}) {
    for (auto& a : *group) window_end = std::max(window_end, a->last_end);
  }
  const double window_s = static_cast<double>(window_end - start) / 1e9;
  {
    std::array<uint64_t, 8> t = cpu_ticks();
    double total = 0;
    for (size_t i = 0; i < t.size(); ++i) total += static_cast<double>(t[i] - ticks_before[i]);
    auto d = [&](size_t i) { return static_cast<double>(t[i] - ticks_before[i]); };
    r.conditions = {{"cpu_busy_frac", ratio(total - d(3) - d(4), total)},
                    {"cpu_steal_frac", ratio(d(7), total)}};
  }
  Snapshot after = snapshot(w);
  ClientStats ws = sum_stats(w.writers);
  ClientStats rs = sum_stats(w.readers);
  std::vector<Span> spans = tracer.drain();

  uint64_t commits = 0;
  uint64_t reads = 0;
  for (auto& a : w.writers) commits += a->cs_us[0].size() + a->cs_us[1].size();
  for (auto& a : w.readers) reads += a->cs_us[0].size() + a->cs_us[1].size();

  Windowed write_cs_us = merged_cs(w.writers, -1, empty);
  Windowed untraced_write_us = merged_cs(w.writers, 0, empty);
  Windowed traced_write_us = merged_cs(w.writers, 1, empty);
  Windowed read_cs_us = merged_cs(w.readers, -1, empty);
  Windowed lag_us = merged(w.readers, &Agent::lag_us, empty);
  Windowed late_us = merged(w.writers, &Agent::late_us, empty);
  Windowed response_us = merged(w.writers, &Agent::response_us, empty);

  // ---- post-run: final checkpoint, a short journaled tail, replica check
  w.cluster->primary().checkpoint();
  for (auto& a : w.writers) {
    for (int i = 0; i < kTailCommits; ++i) write_cs(*a, spec, config.seed, 0);
  }
  uint64_t checks = 0;
  std::vector<std::string> check_problems;
  std::vector<SegmentVersions> acked, primary_held;
  for (auto& s : w.segs) {
    acked.push_back({s->url, s->acked.load()});
    primary_held.push_back({s->url, w.cluster->primary().segment_version(s->url)});
  }
  for (const std::string& p : lost_acks(acked, primary_held)) {
    check_problems.push_back("primary lost ack: " + p);
  }
  checks += acked.size();
  if (SegmentServer* replica = w.cluster->replica()) {
    std::vector<SegmentVersions> replica_held;
    for (auto& s : w.segs) replica_held.push_back({s->url, replica->segment_version(s->url)});
    for (const std::string& p : replica_mismatches(primary_held, replica_held)) {
      check_problems.push_back("replica behind: " + p);
    }
    checks += acked.size();
  }

  // Gather per-agent outcomes before the clients go away.
  uint64_t failures = 0;
  uint64_t stale = 0;
  for (auto* group : {&w.writers, &w.readers}) {
    for (auto& a : *group) {
      a->stale += count_stale(a->reads);
      stale += a->stale;
      failures += a->failures + a->stale;
      for (auto& p : a->problems) {
        if (r.problems.size() < kMaxProblems) r.problems.push_back(p);
      }
    }
  }
  uint64_t attempted = 0;
  for (auto* group : {&w.writers, &w.readers}) {
    for (auto& a : *group) attempted += a->ops;
  }

  // ---- recovery: a fresh server over copies of the primary's directory
  fs::path primary_dir = w.cluster->primary_dir();
  std::vector<std::unique_ptr<SegState>> segs = std::move(w.segs);
  w.tear_down();
  world.reset();
  std::vector<double> recover_ms;
  for (int i = 0; i < kRecoveries; ++i) {
    fs::path copy = root / ("recover" + std::to_string(i));
    fs::copy(primary_dir, copy, fs::copy_options::recursive);
    SegmentServer::Options opts;
    opts.checkpoint_dir = copy.string();
    {
      SegmentServer server(opts);
      int64_t t0 = now_ns();
      server.recover();
      recover_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (i == 0) {
        std::vector<SegmentVersions> held;
        for (auto& s : segs) held.push_back({s->url, server.segment_version(s->url)});
        for (const std::string& p : lost_acks(acked, held)) {
          check_problems.push_back("recovery lost ack: " + p);
        }
        for (auto& s : segs) {
          std::string bad = verify_recovered(server, *s, spec.records);
          if (!bad.empty()) check_problems.push_back("recovered content: " + bad);
        }
        checks += 2 * segs.size();
      }
    }
    fs::remove_all(copy);
  }
  fs::remove_all(root);

  for (auto& p : check_problems) {
    if (r.problems.size() < kMaxProblems) r.problems.push_back(p);
  }
  r.attempted = attempted + checks;
  r.failed = failures + check_problems.size();

  // ---- end-to-end metrics
  auto add = [](std::vector<Metric>& to, const char* name, double value,
                const char* unit, uint64_t samples) {
    to.push_back({name, value, unit, samples});
  };
  auto pct = [](const Windowed& v, double q) { return v.percentile(q); };
  auto& e = r.end_to_end;
  add(e, "write_cs_p50_us", pct(write_cs_us, 0.50), "us", write_cs_us.size());
  add(e, "write_cs_p99_us", pct(write_cs_us, 0.99), "us", write_cs_us.size());
  add(e, "write_cs_per_s", write_cs_us.rate(), "1/s",
      commits);
  if (spec.period_ns > 0) {
    add(e, "write_response_p50_us", pct(response_us, 0.50), "us", response_us.size());
    add(e, "write_response_p99_us", pct(response_us, 0.99), "us", response_us.size());
  }
  if (spec.readers > 0) {
    add(e, "read_cs_p50_us", pct(read_cs_us, 0.50), "us", read_cs_us.size());
    add(e, "read_cs_p99_us", pct(read_cs_us, 0.99), "us", read_cs_us.size());
    add(e, "read_cs_per_s", read_cs_us.rate(), "1/s",
        reads);
    add(e, "update_lag_p50_us", pct(lag_us, 0.50), "us", lag_us.size());
    add(e, "update_lag_p99_us", pct(lag_us, 0.99), "us", lag_us.size());
  }
  add(e, "wire_bytes_per_commit", ratio(after.wire - before.wire, commits), "B",
      commits);
  add(e, "failed_op_frac", ratio(r.failed, r.attempted), "frac", r.attempted);
  add(e, "recover_ms", percentile(recover_ms, 0.5), "ms", recover_ms.size());
  add(e, "setup_s", percentile(setup_s, 0.5), "s", setup_s.size());
  add(e, "peak_rss_mb", rss_mb(), "MiB", 1);

  // ---- per-layer metrics
  SpanStats ss = summarise(std::move(spans));
  auto& l = r.per_layer;
  auto span_pct = [&](const char* name, const std::string& key, double q) {
    const auto& v = ss.by_key[key];
    add(l, name, percentile(v, q), "us", v.size());
  };
  const double c = static_cast<double>(commits);
  const double updates = static_cast<double>(rs.updates_applied);
  span_pct("client.write_lock_us.p50", "write_lock", 0.50);
  span_pct("client.write_lock_us.p99", "write_lock", 0.99);
  span_pct("client.modify_us.p50", "modify", 0.50);
  span_pct("client.write_unlock_us.p50", "write_unlock", 0.50);
  span_pct("client.write_unlock_us.p99", "write_unlock", 0.99);
  span_pct("client.release_self_us.p50", "release_self", 0.50);
  add(l, "client.word_diff_ns_per_commit", ratio(ws.word_diff_ns, c), "ns", commits);
  add(l, "client.collect_ns_per_commit", ratio(ws.collect_ns, c), "ns", commits);
  add(l, "client.units_sent_per_commit", ratio(ws.units_sent, c), "count", commits);
  add(l, "client.no_diff_release_frac",
      ratio(ws.no_diff_releases, ws.diff_releases + ws.no_diff_releases), "frac",
      ws.diff_releases + ws.no_diff_releases);
  span_pct("client.read_lock_us.p50", "read_lock", 0.50);
  span_pct("client.read_lock_us.p99", "read_lock", 0.99);
  auto rpc_delta = [&](MsgType t) {
    auto i = static_cast<size_t>(t) & 63;
    return static_cast<double>(after.client_rpc[i] - before.client_rpc[i]);
  };
  add(l, "client.read_rpcs_per_cs",
      ratio(rpc_delta(MsgType::kAcquireRead) + rpc_delta(MsgType::kReleaseRead),
            static_cast<double>(reads)),
      "count", reads);
  add(l, "client.lock_cache_hit_frac",
      ratio(rs.lock_cache_hits, rs.lock_cache_hits + rs.lock_cache_misses), "frac",
      rs.lock_cache_hits + rs.lock_cache_misses);
  add(l, "client.stale_full_reads", static_cast<double>(stale), "count", reads);
  add(l, "client.apply_ns_per_update", ratio(rs.apply_ns, updates), "ns",
      rs.updates_applied);
  add(l, "client.swizzles_in_per_update", ratio(rs.swizzles_in, updates), "count",
      rs.updates_applied);
  add(l, "client.revokes_acked_per_commit", ratio(rs.revokes_acked, c), "count",
      commits);
  add(l, "client.retried_calls", ws.retried_calls + rs.retried_calls, "count", 1);
  add(l, "client.call_timeouts", ws.call_timeouts + rs.call_timeouts, "count", 1);
  add(l, "client.reconnects", ws.reconnects + rs.reconnects, "count", 1);

  add(l, "types.translate_ns_per_commit", ratio(ws.translate_ns, c), "ns", commits);
  add(l, "types.iso_fast_path_blocks_per_commit",
      ratio(ws.isomorphic_fast_path_blocks, c), "count", commits);
  add(l, "types.bytes_decoded_per_update", ratio(rs.bytes_decoded, updates), "B",
      rs.updates_applied);
  add(l, "types.plan_cache_misses", static_cast<double>(setup_plan_misses), "count", 1);

  const auto& sb = before.server;
  const auto& sa = after.server;
  add(l, "wire.diffs_compressed_frac", ratio(ws.diffs_compressed, ws.diffs_collected),
      "frac", ws.diffs_collected);
  add(l, "wire.update_wire_ratio",
      ratio(sa.update_wire_bytes - sb.update_wire_bytes,
            sa.update_raw_bytes - sb.update_raw_bytes),
      "frac", sa.updates_sent - sb.updates_sent);
  add(l, "wire.commit_stored_ratio",
      ratio(sa.commit_stored_bytes - sb.commit_stored_bytes,
            sa.commit_raw_bytes - sb.commit_raw_bytes),
      "frac", commits);

  span_pct("net.acquire_write_us.p50", "net.acquire_write", 0.50);
  span_pct("net.release_write_us.p50", "net.release_write", 0.50);
  span_pct("net.acquire_read_us.p50", "net.acquire_read", 0.50);
  span_pct("net.transit_us.p50", "net.transit", 0.50);
  const auto& rb = before.reactor;
  const auto& ra = after.reactor;
  add(l, "net.frames_per_sendmsg",
      ratio(ra.frames_sent - rb.frames_sent, ra.sendmsg_calls - rb.sendmsg_calls),
      "count", ra.sendmsg_calls - rb.sendmsg_calls);
  add(l, "net.wakeups_per_frame",
      ratio(ra.epoll_wakeups - rb.epoll_wakeups, ra.frames_received - rb.frames_received),
      "count", ra.frames_received - rb.frames_received);
  add(l, "net.worker_queue_depth_max", ra.worker_queue_depth_max, "count", 1);
  add(l, "net.workers_spawned", ra.workers_spawned, "count", 1);
  add(l, "net.backpressure_stalls", ra.backpressure_stalls - rb.backpressure_stalls,
      "count", 1);

  span_pct("server.handle_us.acquire_write.p50", "server.acquire_write", 0.50);
  span_pct("server.handle_us.acquire_write.p99", "server.acquire_write", 0.99);
  span_pct("server.handle_us.release_write.p50", "server.release_write", 0.50);
  span_pct("server.handle_us.release_write.p99", "server.release_write", 0.99);
  span_pct("server.handle_us.acquire_read.p50", "server.acquire_read", 0.50);
  uint64_t uptodate = sa.uptodate_responses - sb.uptodate_responses;
  uint64_t updates_sent = sa.updates_sent - sb.updates_sent;
  add(l, "server.uptodate_frac", ratio(uptodate, uptodate + updates_sent), "frac",
      uptodate + updates_sent);
  add(l, "server.revokes_sent_per_commit", ratio(sa.revokes_sent - sb.revokes_sent, c),
      "count", commits);
  add(l, "server.revokes_expired", sa.revokes_expired - sb.revokes_expired, "count", 1);

  const auto& tb = before.store;
  const auto& ta = after.store;
  add(l, "server.store.apply_ns_per_commit",
      ratio(ta.apply_ns - tb.apply_ns, ta.diffs_applied - tb.diffs_applied), "ns",
      ta.diffs_applied - tb.diffs_applied);
  add(l, "server.store.prediction_hit_frac",
      ratio(ta.prediction_hits - tb.prediction_hits,
            ta.prediction_hits - tb.prediction_hits + ta.prediction_misses -
                tb.prediction_misses),
      "frac", ta.prediction_hits - tb.prediction_hits + ta.prediction_misses -
                  tb.prediction_misses);
  add(l, "server.store.collect_ns_per_update",
      ratio(ta.collect_ns - tb.collect_ns, updates_sent), "ns", updates_sent);
  add(l, "server.store.diff_cache_hit_frac",
      ratio(ta.diff_cache_hits - tb.diff_cache_hits,
            ta.diff_cache_hits - tb.diff_cache_hits + ta.diff_cache_misses -
                tb.diff_cache_misses),
      "frac", ta.diff_cache_hits - tb.diff_cache_hits + ta.diff_cache_misses -
                  tb.diff_cache_misses);

  add(l, "server.wal.bytes_per_commit",
      ratio(sa.wal_bytes_appended - sb.wal_bytes_appended, c), "B", commits);
  add(l, "server.wal.fsyncs_per_s", ratio(sa.wal_fsyncs - sb.wal_fsyncs, window_s),
      "1/s", sa.wal_fsyncs - sb.wal_fsyncs);
  add(l, "server.checkpoints_written", sa.checkpoints_written - sb.checkpoints_written,
      "count", 1);
  add(l, "server.checkpoints_incremental",
      sa.checkpoints_incremental - sb.checkpoints_incremental, "count", 1);

  span_pct("server.replication.append_us.p50", "repl.append", 0.50);
  span_pct("server.replication.append_us.p99", "repl.append", 0.99);
  add(l, "server.replication.records_per_batch",
      ratio(after.repl.records_sent - before.repl.records_sent,
            after.repl.batches_sent - before.repl.batches_sent),
      "count", after.repl.batches_sent - before.repl.batches_sent);
  add(l, "server.replication.ack_timeouts",
      after.repl.ack_timeouts - before.repl.ack_timeouts, "count", 1);
  add(l, "server.replication.link_errors",
      after.repl.link_errors - before.repl.link_errors, "count", 1);

  add(l, "bench.unattributed_us.p50", percentile(ss.unattributed_us, 0.50), "us",
      ss.unattributed_us.size());
  add(l, "bench.generator_late_us.p99", percentile(late_us.all(), 0.99), "us",
      late_us.size());
  double untraced_p50 = percentile(untraced_write_us.all(), 0.50);
  add(l, "bench.trace_overhead_frac",
      untraced_p50 > 0 ? percentile(traced_write_us.all(), 0.50) / untraced_p50 - 1.0
                       : 0.0,
      "frac", traced_write_us.size());

  if (ss.ledger_violations > 0) {
    r.problems.push_back("ledger: " + std::to_string(ss.ledger_violations) + " of " +
                         std::to_string(ss.ledger_roots) +
                         " write_cs spans do not add up");
  }
  if (tracer.dropped() > 0) {
    r.problems.push_back("trace: " + std::to_string(tracer.dropped()) +
                         " spans dropped at the per-thread cap");
  }
  r.correct = r.failed == 0 && ss.ledger_violations == 0;
  return r;
}

}  // namespace pb
