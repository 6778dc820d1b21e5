// The lock protocol, model-checked. One server::LockTable (the server's
// rules) and three client::ReadLockCache structs (the client's rules) are
// joined by per-session FIFO queues, and every interleaving of their events
// is explored breadth-first, with state hashing, to a bounded depth. The
// code under test is the code the server and the client run; only the
// transport, the threads and the clock are modelled here.
//
// Per session there are four queues: the client's calls and its revoke
// acks (sent by its ack worker, so they may pass a blocked call), and the
// server's responses and kRevokeRead notifications (pushed by different
// server threads, so either may overtake the other). A session's server
// thread takes one call at a time, as the reactor does. The clock moves in
// whole ticks, but not while a revoke or its ack is undelivered: clients
// answer revokes within the deadline unless a reader is stuck inside its
// critical section. One session may disconnect per trace.
//
// Invariants, checked after every event (the first once per distinct
// state, which is the same):
//   1. at most one session's release would be accepted;
//   2. a session answered "granted" holds the slot until its lease lapses;
//   3. no client caches a read grant while another session holds the
//      drained write lock, unless the server presumed that client sick
//      (its revoke deadline passed with a reader inside) and the client
//      has not let go since;
//   4. a grant that a revoke overtook is never cached;
//   5. a lease is reclaimed only once it has lapsed, and each reclaim is
//      answered kLeaseExpired at most once;
//   6. no waiter is told to wait past the revoke deadline plus the lease.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "client/lock_cache.hpp"
#include "server/lock_table.hpp"

namespace iw {
namespace {

using client::ReadLockCache;
using server::LockTable;
using Verdict = LockTable::Verdict;
using Write = LockTable::Write;

constexpr int kSessions = 3;
constexpr int kLease = 3;  // ticks
constexpr int kRevokeDeadline = 2;
constexpr int kQueue = 4;   // messages a queue holds; a full one blocks
constexpr int kDepth = 16;  // events per trace

LockTable::Time at(int64_t tick) {
  return LockTable::Time{} + std::chrono::milliseconds(tick);
}

LockTable::Config model_config() {
  return {std::chrono::milliseconds(kLease),
          std::chrono::milliseconds(kRevokeDeadline)};
}

/// Every event of the model: a client's, a server thread's, or the world's.
#define IW_LOCK_MODEL_EVENTS(X)                                   \
  X(read)       /* client: Full read_lock */                      \
  X(read_weak)  /* client: read_lock under another model */       \
  X(unlock)     /* client: read_unlock */                         \
  X(write)      /* client: write_lock */                          \
  X(renew)      /* client: a type registration mid-section */     \
  X(release)    /* client: write_unlock */                        \
  X(recv)       /* client: takes the next response */             \
  X(revoked)    /* client: takes the next kRevokeRead */          \
  X(disconnect) /* the session drops; its state is forgotten */   \
  X(serve)      /* server: takes the session's next call */       \
  X(ack)        /* server: takes the session's next kRevokeAck */ \
  X(resume)     /* server: the session's write acquire wakes */   \
  X(fanout)     /* server: pushes the decided kRevokeRead frames */ \
  X(advance)    /* the clock moves one tick */

enum class Ev : uint8_t {
#define IW_LOCK_MODEL_ENUM(name) name,
  IW_LOCK_MODEL_EVENTS(IW_LOCK_MODEL_ENUM)
#undef IW_LOCK_MODEL_ENUM
  kCount
};

const char* ev_name(Ev e) {
  static const char* const kNames[] = {
#define IW_LOCK_MODEL_NAME(name) #name,
      IW_LOCK_MODEL_EVENTS(IW_LOCK_MODEL_NAME)
#undef IW_LOCK_MODEL_NAME
  };
  return kNames[static_cast<int>(e)];
}

bool global_event(Ev e) { return e == Ev::advance; }

enum class Call : uint32_t { kRead, kReadWeak, kWrite, kRenew, kRelease };
enum class App : uint8_t {
  kIdle,
  kReadWait,
  kReading,
  kWriteWait,
  kWriting,
  kRenewWait,
  kReleaseWait,
};
/// The session's server-side thread while a write acquire is in progress.
enum class Thread : uint8_t { kIdle, kLoop, kFanout };

struct Fifo {
  std::array<uint32_t, kQueue> v{};
  uint8_t n = 0;
  bool empty() const { return n == 0; }
  bool full() const { return n == kQueue; }
  void push(uint32_t x) { v[n++] = x; }
  uint32_t pop() {
    uint32_t x = v[0];
    std::copy(v.begin() + 1, v.begin() + n, v.begin());
    --n;
    return x;
  }
};

struct Peer {
  App app = App::kIdle;
  ReadLockCache cache;
  uint64_t ticket = 0;  // cache.revokes when the read RPC was sent
  Fifo calls, acks, resps, notes;
  Thread thread = Thread::kIdle;
  uint32_t fanout_gen = 0;
  uint8_t fanout_to = 0;  // bit per target session
  // Ghost state: what the invariants remember about the past.
  bool answered_granted = false;  // answered kGranted, release not yet seen
  int64_t protected_until = 0;    // its lease cannot lapse before this tick
  bool grant_in_flight = false;   // a cached grant is on its way
  bool overtaken = false;         // ...and a revoke arrived before it
  bool presumed_sick = false;     // its grant was dropped without its ack
  uint8_t owed_expiry = 0;        // reclaims not yet answered kLeaseExpired
};

struct State {
  LockTable table{model_config()};
  std::array<Peer, kSessions> peers;
  int64_t now = 0;
  bool disconnected = false;
};

SessionId sid(int i) { return static_cast<SessionId>(i + 1); }

struct Checker {
  std::string violation;
  std::string* log = nullptr;

  void fail(const std::string& what) {
    if (violation.empty()) violation = what;
  }
  /// Logs one line of a counterexample replay; free otherwise.
  template <class... Parts>
  void note(const Parts&... parts) {
    if (log == nullptr) return;
    std::ostringstream line;
    (line << ... << parts);
    *log += "  " + line.str() + "\n";
  }

  /// Who held a cached grant server-side, to attribute forced drops.
  static std::array<bool, kSessions> server_cached(const State& st) {
    std::array<bool, kSessions> out{};
    for (int i = 0; i < kSessions; ++i) {
      const LockTable::Session* ss = st.table.session(sid(i));
      out[i] = ss != nullptr && ss->cached;
    }
    return out;
  }

  /// The forced drops of one decision: a revoke deadline presumes sick
  /// only the holders with a reader stuck inside.
  void forced_drops(State& st, const std::array<bool, kSessions>& before) {
    const auto after = server_cached(st);
    for (int q = 0; q < kSessions; ++q) {
      Peer& p = st.peers[q];
      if (before[q] && !after[q] && p.cache.active > 0) p.presumed_sick = true;
    }
  }

  /// Carries out a write-acquire decision for session i.
  void write_decision(State& st, int i, SessionId prev_writer,
                      const std::array<bool, kSessions>& before,
                      const LockTable::Decision& d) {
    Peer& me = st.peers[i];
    note("  -> ", verdict_name(d.verdict));
    if (d.verdict == Verdict::kRevoke) {
      note("     gen ", d.gen, " to ", d.revoke.size(), " sessions");
    }
    if (d.leases_reclaimed != 0) note("     reclaimed s", prev_writer);
    if (d.revokes_expired != 0) {
      note("     drain deadline dropped ", d.revokes_expired, " grants");
    }
    if (d.leases_reclaimed != 0) {
      Peer& old = st.peers[prev_writer - 1];
      if (st.now < old.protected_until) {
        fail("s" + std::to_string(prev_writer) +
             "'s lease was reclaimed before it lapsed");
      }
      if (++old.owed_expiry > 1) {
        fail("s" + std::to_string(prev_writer) + "'s lease reclaimed twice");
      }
    }
    forced_drops(st, before);
    if (prev_writer != sid(i) && st.table.writer() == sid(i)) {
      me.protected_until = st.now + kRevokeDeadline + kLease;  // drainer
    }
    switch (d.verdict) {
      case Verdict::kWait:
        if (d.until <= at(st.now) ||
            d.until > at(st.now + kRevokeDeadline + kLease)) {
          fail("s" + std::to_string(i + 1) +
               " told to wait past the revoke deadline plus the lease");
        }
        me.thread = Thread::kLoop;
        return;
      case Verdict::kRevoke:
        me.thread = Thread::kFanout;
        me.fanout_gen = d.gen;
        me.fanout_to = 0;
        for (SessionId t : d.revoke) me.fanout_to |= 1u << (t - 1);
        return;
      case Verdict::kGranted:
        me.answered_granted = true;
        me.protected_until = st.now + kLease;
        break;
      case Verdict::kLeaseExpired:
        expiry_answered(st, i);
        break;
      default:
        break;
    }
    me.thread = Thread::kIdle;
    me.resps.push(static_cast<uint32_t>(d.verdict));
  }

  void expiry_answered(State& st, int i) {
    Peer& me = st.peers[i];
    if (me.owed_expiry == 0) {
      fail("s" + std::to_string(i + 1) +
           " answered kLeaseExpired with no reclaim");
    } else {
      --me.owed_expiry;
    }
  }

  static const char* verdict_name(Verdict v) {
    static const char* const kNames[] = {
        "granted", "denied", "wait", "revoke", "ok", "lease-expired",
        "not-held", "already-held"};
    return kNames[static_cast<int>(v)];
  }

  /// Applies event `e` of session `i` (ignored for world events); false
  /// when it is not enabled in `st`.
  bool step(State& st, Ev e, int i) {
    Peer& me = st.peers[i];
    const LockTable::Time now = at(st.now);
    const auto before = server_cached(st);
    const SessionId prev_writer = st.table.writer();
    const int n = i + 1;
    const std::string who = "s" + std::to_string(n) + " ";
    switch (e) {
      case Ev::read:
      case Ev::read_weak:
        if (me.app != App::kIdle || me.calls.full()) return false;
        if (e == Ev::read && me.cache.hit()) {
          note("s", n, " read: cache hit");
          me.app = App::kReading;
          break;
        }
        note("s", n, " ", ev_name(e), ": acquire RPC");
        me.ticket = me.cache.revokes;
        me.calls.push(static_cast<uint32_t>(e == Ev::read ? Call::kRead
                                                          : Call::kReadWeak));
        me.app = App::kReadWait;
        break;
      case Ev::unlock:
        if (me.app != App::kReading || me.acks.full()) return false;
        me.app = App::kIdle;
        if (me.cache.leave()) {
          note("s", n, " unlock: deferred ack gen ", me.cache.revoke_gen);
          me.acks.push(me.cache.revoke_gen);
        } else {
          note("s", n, " unlock");
        }
        break;
      case Ev::write:
        if (me.app != App::kIdle || me.calls.full()) return false;
        note("s", n, " write: acquire RPC");
        me.cache.forget();
        me.calls.push(static_cast<uint32_t>(Call::kWrite));
        me.app = App::kWriteWait;
        break;
      case Ev::renew:
      case Ev::release:
        if (me.app != App::kWriting || me.calls.full()) return false;
        note("s", n, " ", ev_name(e));
        me.calls.push(static_cast<uint32_t>(e == Ev::renew ? Call::kRenew
                                                           : Call::kRelease));
        me.app = e == Ev::renew ? App::kRenewWait : App::kReleaseWait;
        break;
      case Ev::recv: {
        if (me.resps.empty()) return false;
        const auto v = static_cast<Verdict>(me.resps.pop());
        note("s", n, " recv ", verdict_name(v));
        switch (me.app) {
          case App::kReadWait:
            me.cache.answered(v == Verdict::kGranted, me.ticket);
            if (me.overtaken && me.cache.cached) {
              fail(who + "cached a grant its revoke overtook");
            }
            me.grant_in_flight = me.overtaken = false;
            me.app = App::kReading;
            break;
          case App::kWriteWait:
            me.app = v == Verdict::kGranted ? App::kWriting : App::kIdle;
            break;
          case App::kRenewWait:
            me.app = App::kWriting;
            break;
          case App::kReleaseWait:
            if (v != Verdict::kOk) me.cache.forget();
            me.app = App::kIdle;
            break;
          default:
            fail(who + "got a response it did not ask for");
        }
        break;
      }
      case Ev::revoked: {
        if (me.notes.empty() || me.acks.full()) return false;
        const uint32_t gen = me.notes.pop();
        if (me.grant_in_flight) me.overtaken = true;
        if (me.cache.revoke(gen)) {
          note("s", n, " revoke gen ", gen, ": ack");
          me.acks.push(gen);
        } else {
          note("s", n, " revoke gen ", gen, ": deferred");
        }
        break;
      }
      case Ev::disconnect: {
        // Not mid-fan-out: that thread would push frames for a session id
        // this model reuses for the next connection.
        if (st.disconnected || me.thread == Thread::kFanout) return false;
        note("s", n, " disconnects");
        st.disconnected = true;
        st.table.forget(sid(i));
        me = Peer{};
        break;
      }
      case Ev::serve: {
        if (me.calls.empty() || me.thread != Thread::kIdle ||
            me.resps.full()) {
          return false;
        }
        const auto call = static_cast<Call>(me.calls.pop());
        switch (call) {
          case Call::kRead:
          case Call::kReadWeak: {
            const LockTable::Decision d =
                st.table.acquire_read(sid(i), call == Call::kRead);
            note("s", n, " server: acquire_read -> ", verdict_name(d.verdict));
            if (d.verdict == Verdict::kGranted) me.grant_in_flight = true;
            me.resps.push(static_cast<uint32_t>(d.verdict));
            break;
          }
          case Call::kWrite:
            note("s", n, " server: acquire_write");
            write_decision(st, i, prev_writer, before,
                           st.table.acquire_write(sid(i), now));
            break;
          case Call::kRenew: {
            const LockTable::Decision d = st.table.renew(sid(i), now);
            note("s", n, " server: renew -> ", verdict_name(d.verdict));
            if (d.verdict == Verdict::kOk) me.protected_until = st.now + kLease;
            me.resps.push(static_cast<uint32_t>(d.verdict));
            break;
          }
          case Call::kRelease: {
            const LockTable::Decision d = st.table.release_write(sid(i));
            note("s", n, " server: release -> ", verdict_name(d.verdict));
            if (d.verdict == Verdict::kLeaseExpired) expiry_answered(st, i);
            if (d.verdict == Verdict::kOk ||
                d.verdict == Verdict::kLeaseExpired) {
              me.answered_granted = false;
            }
            me.resps.push(static_cast<uint32_t>(d.verdict));
            break;
          }
        }
        break;
      }
      case Ev::ack: {
        if (me.acks.empty()) return false;
        const uint32_t gen = me.acks.pop();
        const LockTable::Decision d = st.table.revoke_ack(sid(i), gen);
        note("s", n, " server: revoke_ack gen ", gen, " -> ",
             verdict_name(d.verdict));
        break;
      }
      case Ev::resume:
        if (me.thread != Thread::kLoop || me.resps.full()) return false;
        note("s", n, " server: resume_write");
        write_decision(st, i, prev_writer, before,
                       st.table.resume_write(sid(i), now));
        break;
      case Ev::fanout: {
        if (me.thread != Thread::kFanout) return false;
        for (int q = 0; q < kSessions; ++q) {
          if ((me.fanout_to >> q & 1) != 0 && st.peers[q].notes.full()) {
            return false;
          }
        }
        note("s", n, " server: fan-out gen ", me.fanout_gen);
        for (int q = 0; q < kSessions; ++q) {
          if ((me.fanout_to >> q & 1) != 0) {
            st.peers[q].notes.push(me.fanout_gen);
          }
        }
        me.thread = Thread::kLoop;
        break;
      }
      case Ev::advance:
        for (const Peer& p : st.peers) {
          if (!p.notes.empty() || !p.acks.empty() ||
              p.thread == Thread::kFanout) {
            return false;
          }
        }
        ++st.now;
        note("tick ", st.now);
        break;
      case Ev::kCount:
        return false;
    }
    check(st);
    return true;
  }

  /// Invariant 1 runs the release rule on copies of the table, so it is
  /// checked once per distinct state rather than per transition.
  void check_releases(const State& st) {
    int releasable = 0;
    for (int i = 0; i < kSessions; ++i) {
      LockTable copy = st.table;
      releasable += copy.release_write(sid(i)).verdict == Verdict::kOk;
    }
    if (releasable > 1) fail("two sessions' releases would be accepted");
  }

  void check(State& st) {
    for (int i = 0; i < kSessions; ++i) {
      Peer& p = st.peers[i];
      // Presumed sick until it lets go of the grant the server dropped,
      // which may still have been on its way.
      if (!p.cache.cached && !p.grant_in_flight) p.presumed_sick = false;
      if (p.answered_granted && st.table.writer() != sid(i) &&
          st.now < p.protected_until) {
        fail("s" + std::to_string(i + 1) +
             " was answered granted but lost the slot inside its lease");
      }
    }
    for (int w = 0; w < kSessions; ++w) {
      const LockTable::Session* ws = st.table.session(sid(w));
      if (ws == nullptr || ws->write != Write::kHeld) continue;
      for (int q = 0; q < kSessions; ++q) {
        // A client waiting on its read RPC cannot hit its cache: the
        // answer overwrites it.
        const Peer& p = st.peers[q];
        if (q != w && p.cache.cached && p.app != App::kReadWait &&
            !p.presumed_sick) {
          fail("s" + std::to_string(q + 1) +
               " caches a read grant while s" + std::to_string(w + 1) +
               " holds the drained write lock");
        }
      }
    }
  }
};

/// A time-translation-invariant fingerprint: times relative to now, clamped
/// where larger distances behave alike, and generations relative to the
/// table's last one. Counters (epoch, revokes) are left out.
std::string fingerprint(const State& st) {
  std::string out;
  const LockTable& t = st.table;
  auto rel = [&](LockTable::Time x) {
    const auto d = std::chrono::duration_cast<std::chrono::milliseconds>(
                       x - at(st.now))
                       .count();
    out += static_cast<char>(
        std::clamp<int64_t>(d, -1, kRevokeDeadline + kLease + 1));
  };
  auto gen = [&](uint32_t g) {
    const uint32_t age = t.revoke_gen() - g;
    out += static_cast<char>(g == 0 ? 0xFF : std::min<uint32_t>(age, 0xFE));
  };
  out += static_cast<char>(t.writer());
  bool draining = false;
  for (int i = 0; i < kSessions; ++i) {
    const LockTable::Session* ss = t.session(sid(i));
    if (ss == nullptr) {
      out += 'x';
      continue;
    }
    out += static_cast<char>(ss->cached * 2 + 1);
    gen(ss->pending);
    out += static_cast<char>(ss->write);
    draining = draining || ss->write == Write::kDraining;
  }
  if (t.writer() != 0) rel(t.lease_deadline());
  if (draining) rel(t.drain_deadline());
  for (const Peer& p : st.peers) {
    out += static_cast<char>(p.app);
    out += static_cast<char>(p.cache.cached | p.cache.revoked << 1 |
                             (p.app == App::kReadWait &&
                              p.cache.revokes != p.ticket)
                                 << 2);
    out += static_cast<char>(p.cache.active);
    if (p.cache.revoked) gen(p.cache.revoke_gen);
    for (const Fifo* f : {&p.calls, &p.resps}) {
      out += static_cast<char>(f->n);
      for (int k = 0; k < f->n; ++k) out += static_cast<char>(f->v[k]);
    }
    for (const Fifo* f : {&p.acks, &p.notes}) {
      out += static_cast<char>(f->n);
      for (int k = 0; k < f->n; ++k) gen(f->v[k]);
    }
    out += static_cast<char>(p.thread);
    if (p.thread == Thread::kFanout) {
      gen(p.fanout_gen);
      out += static_cast<char>(p.fanout_to);
    }
    out += static_cast<char>(p.answered_granted | p.grant_in_flight << 1 |
                             p.overtaken << 2 | p.presumed_sick << 3 |
                             p.owed_expiry << 4);
    if (p.answered_granted || p.thread != Thread::kIdle) {
      rel(at(p.protected_until));
    }
  }
  out += static_cast<char>(st.disconnected);
  return out;
}

struct Step {
  Ev ev;
  int session;
};

/// Replays `trace` from the initial state, printing every event and the
/// decision it drew.
std::string replay(const std::vector<Step>& trace) {
  State st;
  Checker c;
  std::string log;
  c.log = &log;
  for (const Step& s : trace) {
    c.step(st, s.ev, s.session);
    c.check_releases(st);
  }
  return log + "  violated: " + c.violation + "\n";
}

struct Result {
  size_t states = 0;
  size_t transitions = 0;
  int depth = 0;
  std::string counterexample;
};

Result explore(int max_depth) {
  struct Node {
    uint32_t parent;
    Step step;
  };
  std::vector<Node> nodes{{0, {Ev::kCount, 0}}};
  std::unordered_set<uint64_t> seen;  // fingerprint hashes
  const std::hash<std::string> hash;
  std::vector<std::pair<State, uint32_t>> frontier{{State{}, 0}};
  seen.insert(hash(fingerprint(frontier[0].first)));
  Result r;
  for (int depth = 1; depth <= max_depth && !frontier.empty(); ++depth) {
    std::vector<std::pair<State, uint32_t>> next;
    for (const auto& [state, id] : frontier) {
      for (int e = 0; e < static_cast<int>(Ev::kCount); ++e) {
        const Ev ev = static_cast<Ev>(e);
        for (int i = 0; i < (global_event(ev) ? 1 : kSessions); ++i) {
          State succ = state;
          Checker c;
          if (!c.step(succ, ev, i)) continue;
          ++r.transitions;
          const bool fresh = seen.insert(hash(fingerprint(succ))).second;
          if (fresh) c.check_releases(succ);
          if (!c.violation.empty()) {
            std::vector<Step> trace{{ev, i}};
            for (uint32_t n = id; n != 0; n = nodes[n].parent) {
              trace.push_back(nodes[n].step);
            }
            std::reverse(trace.begin(), trace.end());
            r.states = seen.size();
            r.depth = depth;
            r.counterexample = replay(trace);
            return r;
          }
          if (!fresh) continue;
          nodes.push_back({id, {ev, i}});
          next.emplace_back(std::move(succ),
                            static_cast<uint32_t>(nodes.size() - 1));
        }
      }
    }
    frontier = std::move(next);
    r.depth = depth;
  }
  r.states = seen.size();
  return r;
}

TEST(LockModel, EveryInterleavingOfThreeSessionsKeepsTheInvariants) {
  const auto start = std::chrono::steady_clock::now();
  const Result r = explore(kDepth);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  std::printf("lock model: %zu states, %zu transitions, depth %d, %.2f s\n",
              r.states, r.transitions, r.depth, secs);
  EXPECT_TRUE(r.counterexample.empty()) << "counterexample:\n"
                                        << r.counterexample;
  EXPECT_GE(r.states, 100'000u) << "the model shrank below its bound";
}

/// A drainer stalls past its lease, a waiter reclaims the slot, and the
/// drainer's resumed acquire must not be answered granted.
TEST(LockTable, ReclaimedDrainerIsAnsweredLeaseExpired) {
  LockTable t(model_config());
  constexpr SessionId kReader = 1, kDrainer = 2, kWaiter = 3;
  ASSERT_EQ(t.acquire_read(kReader, true).verdict, Verdict::kGranted);
  LockTable::Decision d = t.acquire_write(kDrainer, at(0));
  ASSERT_EQ(d.verdict, Verdict::kRevoke);
  EXPECT_EQ(d.revoke, std::vector<SessionId>{kReader});
  // The waiter finds the slot leased until the drain deadline plus a lease.
  d = t.acquire_write(kWaiter, at(1));
  ASSERT_EQ(d.verdict, Verdict::kWait);
  EXPECT_EQ(d.until, at(kRevokeDeadline + kLease));
  // The drainer's thread does not run again until after that.
  d = t.resume_write(kWaiter, at(kRevokeDeadline + kLease));
  EXPECT_EQ(d.leases_reclaimed, 1u);
  EXPECT_EQ(d.verdict, Verdict::kWait) << "the reader's grant still drains";
  EXPECT_EQ(t.writer(), kWaiter);
  EXPECT_EQ(t.epoch(), 1u);
  d = t.resume_write(kDrainer, at(kRevokeDeadline + kLease));
  EXPECT_EQ(d.verdict, Verdict::kLeaseExpired);
  EXPECT_EQ(t.writer(), kWaiter) << "the drainer touched the new holder";
  // The reader's ack for the first drain's revoke still counts.
  EXPECT_EQ(t.revoke_ack(kReader, 1).verdict, Verdict::kOk);
  d = t.resume_write(kWaiter, at(kRevokeDeadline + kLease));
  EXPECT_EQ(d.verdict, Verdict::kGranted);
  EXPECT_EQ(t.release_write(kDrainer).verdict, Verdict::kNotHeld);
  EXPECT_EQ(t.release_write(kWaiter).verdict, Verdict::kOk);
}

}  // namespace
}  // namespace iw
