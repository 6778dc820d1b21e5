#include "server/lock_table.hpp"

namespace iw::server {

const LockTable::Session* LockTable::session(SessionId s) const {
  auto it = sessions_.find(s);
  return it == sessions_.end() ? nullptr : &it->second;
}

LockTable::Decision LockTable::acquire_read(SessionId s, bool full) {
  Session& me = sessions_[s];
  const bool grant = full && writer_ == 0;
  // A refused acquire surrenders the grant a drain may wait on: the client
  // re-contacted us, so it is not sick.
  Decision d{.verdict = grant ? Verdict::kGranted : Verdict::kDenied,
             .wake = me.cached && !grant};
  me = Session{grant, 0, me.write};
  return d;
}

LockTable::Decision LockTable::revoke_ack(SessionId s, uint32_t gen) {
  auto it = sessions_.find(s);
  // Acks ride a background client thread: a duplicate, or one that arrives
  // after the session re-earned a grant, retires nothing.
  if (it == sessions_.end() || gen == 0 || it->second.pending != gen) {
    return {.verdict = Verdict::kDenied};
  }
  it->second.cached = false;
  it->second.pending = 0;
  return {.verdict = Verdict::kOk, .wake = true};
}

LockTable::Decision LockTable::acquire_write(SessionId s, Time now) {
  Session& me = sessions_[s];
  if (me.write != Write::kNone && me.write != Write::kReclaimed) {
    return {.verdict = Verdict::kAlreadyHeld};
  }
  // A writer may read what it writes, so its own grant is subsumed, here
  // rather than at the slot: TCP queues this session's revoke ack behind
  // its blocked acquire, so a drain would wait out its deadline for it.
  Decision d{.wake = me.cached};
  me = Session{.write = Write::kWaiting};  // forgives a reclaimed lease
  return advance(s, me, now, std::move(d));
}

LockTable::Decision LockTable::resume_write(SessionId s, Time now) {
  auto it = sessions_.find(s);
  if (it == sessions_.end()) return {.verdict = Verdict::kNotHeld};
  Session& me = it->second;
  if (me.write == Write::kWaiting || me.write == Write::kDraining) {
    return advance(s, me, now, {});
  }
  if (me.write != Write::kReclaimed) return {.verdict = Verdict::kNotHeld};
  // It stalled a lease past its drain deadline and a waiter took the slot.
  me.write = Write::kNone;
  return {.verdict = Verdict::kLeaseExpired};
}

LockTable::Decision LockTable::advance(SessionId s, Session& me, Time now,
                                       Decision d) {
  if (me.write == Write::kWaiting) {
    if (writer_ != 0) {
      if (now < lease_deadline_) {
        d.verdict = Verdict::kWait;
        d.until = lease_deadline_;
        return d;
      }
      // The holder outlived its lease without renewing: presumed stalled,
      // partitioned or dead without a clean disconnect.
      sessions_.at(writer_).write = Write::kReclaimed;
      ++epoch_;
      ++d.leases_reclaimed;
    }
    writer_ = s;
    me.write = Write::kDraining;
    // A drain ends by its deadline, so only a drainer that stalls a whole
    // lease past it can be reclaimed.
    drain_deadline_ = now + config_.revoke_deadline;
    lease_deadline_ = drain_deadline_ + config_.lease;
    const uint32_t gen = revoke_gen_ + 1 == 0 ? 1 : revoke_gen_ + 1;
    for (auto& [sid, ss] : sessions_) {
      // A grant still pending answers the revoke it was already sent.
      if (!ss.cached || ss.pending != 0) continue;
      ss.pending = gen;
      d.revoke.push_back(sid);
    }
    if (!d.revoke.empty()) {
      d.verdict = Verdict::kRevoke;
      d.gen = revoke_gen_ = gen;
      return d;
    }
  }
  for (auto& [sid, ss] : sessions_) {
    if (!ss.cached) continue;
    if (now < drain_deadline_) {
      d.verdict = Verdict::kWait;
      d.until = drain_deadline_;
      return d;
    }
    // Holders that never acked forfeit their grants, the presumption of
    // sickness a lease reclaim makes.
    ss = Session{.write = ss.write};
    ++d.revokes_expired;
  }
  if (d.revokes_expired != 0) ++epoch_;
  me.write = Write::kHeld;
  lease_deadline_ = now + config_.lease;
  d.verdict = Verdict::kGranted;
  return d;
}

LockTable::Decision LockTable::release_write(SessionId s) {
  auto it = sessions_.find(s);
  if (it == sessions_.end() || (it->second.write != Write::kHeld &&
                                it->second.write != Write::kReclaimed)) {
    return {.verdict = Verdict::kNotHeld};
  }
  const bool held = it->second.write == Write::kHeld;
  it->second.write = Write::kNone;  // a second late release is kNotHeld
  if (!held) return {.verdict = Verdict::kLeaseExpired};
  writer_ = 0;
  return {.verdict = Verdict::kOk, .wake = true};
}

LockTable::Decision LockTable::renew(SessionId s, Time now) {
  auto it = sessions_.find(s);
  if (it == sessions_.end() || it->second.write != Write::kHeld) {
    return {.verdict = Verdict::kNotHeld};
  }
  lease_deadline_ = now + config_.lease;
  return {};
}

LockTable::Decision LockTable::forget(SessionId s) {
  auto it = sessions_.find(s);
  if (it == sessions_.end()) return {};
  if (writer_ == s) writer_ = 0;
  sessions_.erase(it);
  return {.wake = true};
}

}  // namespace iw::server
