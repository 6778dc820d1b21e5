// LockTable: every rule of one segment's reader-writer lock as a pure state
// machine, with no threads, no I/O and no clock. An event whose rule reads
// the time takes `now`; each returns the Decision the caller carries out.
// SegmentServer runs one per segment under the entry mutex;
// tests/lock_table_test.cpp drives the same code through every interleaving
// of three sessions. DESIGN.md, "Distributed lock caching and revocation",
// has the event -> decision table.
#pragma once

#include <chrono>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"

namespace iw::server {

class LockTable {
 public:
  using Clock = std::chrono::steady_clock;
  using Time = Clock::time_point;

  struct Config {
    Clock::duration lease;            // unrenewed writers may be reclaimed
    Clock::duration revoke_deadline;  // how long a drain waits for acks
  };

  enum class Verdict : uint8_t {
    kGranted,       // acquire: proceed (a read acquire: cache the lock)
    kDenied,        // read acquire not cached; stale revoke ack
    kWait,          // write acquire: sleep until `until` or a wake, resume
    kRevoke,        // write acquire: push kRevokeRead(gen) to `revoke`, resume
    kOk,            // release, renew, forget
    kLeaseExpired,  // the caller's writer lease was reclaimed
    kNotHeld,       // release or renew without the lock; left mid-acquire
    kAlreadyHeld,   // write acquire by a holder or a waiter
  };

  struct Decision {
    Verdict verdict = Verdict::kOk;
    Time until{};
    uint32_t gen = 0;
    std::vector<SessionId> revoke{};
    bool wake = false;  // the slot or a grant was freed: waiters re-evaluate
    // Forced drops, for the counters.
    uint32_t leases_reclaimed = 0;
    uint32_t revokes_expired = 0;  // grants dropped at the drain deadline
  };

  enum class Write : uint8_t {
    kNone,
    kWaiting,    // acquire in progress; another session holds the slot
    kDraining,   // holds the slot; cached readers have not all let go
    kHeld,
    kReclaimed,  // lease reclaimed: its next release or resumed acquire is
                 // answered kLeaseExpired, once
  };

  struct Session {
    bool cached = false;   // holds a cached read grant
    uint32_t pending = 0;  // generation of the revoke awaiting its ack
    Write write = Write::kNone;
  };

  explicit LockTable(Config config) : config_(config) {}

  /// Only a Full reader is granted, and only while the slot is free.
  Decision acquire_read(SessionId s, bool full);
  Decision revoke_ack(SessionId s, uint32_t gen);
  /// Starts a write acquire; the server's wait loop then calls resume_write
  /// until the decision is no longer kWait or kRevoke.
  Decision acquire_write(SessionId s, Time now);
  Decision resume_write(SessionId s, Time now);
  Decision release_write(SessionId s);
  Decision renew(SessionId s, Time now);
  /// Disconnect or kCloseSegment: everything the session held is freed.
  Decision forget(SessionId s);

  SessionId writer() const noexcept { return writer_; }
  /// Bumped by each lease reclaim and each drain that hit its deadline.
  uint32_t epoch() const noexcept { return epoch_; }
  Time lease_deadline() const noexcept { return lease_deadline_; }
  Time drain_deadline() const noexcept { return drain_deadline_; }
  uint32_t revoke_gen() const noexcept { return revoke_gen_; }
  const Session* session(SessionId s) const;

 private:
  Decision advance(SessionId s, Session& me, Time now, Decision d);

  Config config_;
  std::unordered_map<SessionId, Session> sessions_;
  SessionId writer_ = 0;  // 0 = the slot is free
  Time lease_deadline_{};
  Time drain_deadline_{};
  uint32_t epoch_ = 0;
  uint32_t revoke_gen_ = 0;
};

}  // namespace iw::server
