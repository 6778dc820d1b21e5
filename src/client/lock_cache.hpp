// ReadLockCache: the client half of one segment's cached read lock, as a
// pure struct. Client keeps one per open segment under its lock-cache mutex
// and sends the acks it asks for; tests/lock_table_test.cpp runs the same
// struct against the server's LockTable.
#pragma once

#include <cstdint>

namespace iw::client {

struct ReadLockCache {
  uint32_t handle = 0;      ///< names the segment in kRevokeAck
  bool cached = false;      ///< granted, not revoked or forgotten since
  bool revoked = false;     ///< a revoke arrived while readers were inside
  int active = 0;           ///< local readers inside under the cached lock
  uint32_t revoke_gen = 0;  ///< generation of the deferred revoke
  uint64_t revokes = 0;     ///< kRevokeRead notifications received

  /// A first acquire enters under the cached lock, if one is held.
  bool hit() {
    if (!cached || revoked) return false;
    ++active;
    return true;
  }
  /// A nested acquire by another local thread rides an active lock.
  bool sublet() {
    if (active == 0) return false;
    ++active;
    return true;
  }
  /// The acquire RPC answered `grant`; `revokes_before` is `revokes` when
  /// it was sent. A revoke that arrived meanwhile found nothing cached and
  /// was acked at once, so the grant may be retired already.
  void answered(bool grant, uint64_t revokes_before) {
    cached = grant && revokes == revokes_before;
    revoked = false;
    active = cached ? 1 : 0;
  }
  /// kRevokeRead(gen); true when the ack is due now. With readers inside,
  /// the release and the ack wait for the last one out.
  bool revoke(uint32_t gen) {
    ++revokes;
    revoke_gen = gen;
    revoked = cached && active > 0;
    if (!revoked) forget();
    return !revoked;
  }
  /// A reader left; true when the deferred revoke's ack is now due.
  bool leave() {
    if (active > 0) --active;
    if (!revoked || active > 0) return false;
    forget();
    return true;
  }
  /// Drops the lock without an ack: its server-side grant is gone.
  void forget() {
    cached = revoked = false;
    active = 0;
  }
};

}  // namespace iw::client
