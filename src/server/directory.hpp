// SegmentDirectory: maps segment URLs to a primary + N replica servers and
// drives crash-tolerant failover.
//
// Placement is consistent hashing over a ring of virtual nodes (so adding
// a server moves only its share of segments), with explicit per-segment
// overrides for deployments that pin hot segments. A placement, once
// resolved, is cached with a monotonically increasing *placement epoch*;
// the epoch travels inside every replicated WAL record and is how a
// deposed primary is fenced (see replication.hpp).
//
// Failover: when a client's reconnect supervisor cannot reach its primary,
// its connector re-resolves with `failover` set. The directory then probes
// the recorded primary (kPing over a short-timeout dial); if the probe
// fails it asks every reachable replica for its segment version
// (kOpenSegment), promotes the most-caught-up one with kPromote carrying
// epoch+1, and republishes the placement. Promotion runs under the
// directory mutex, so two clients that observe the same dead primary
// serialize: the first promotes, the second finds the epoch already past
// its observation and simply adopts the new placement — the
// double-promotion race resolves to exactly one epoch bump.
//
// The zero-acked-loss argument: the primary acked a commit only after
// `replication_factor` replicas journaled it, and promotion picks the
// replica with the highest version, so every acknowledged commit is in the
// promoted server's store and journal.
//
// DirectoryCore exposes resolution over the wire (kDirResolve) so clients
// in other processes can use the same connector; make_failover_connector
// builds the ReconnectingChannel-compatible connector either against an
// in-process directory or through a directory channel.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/counters.hpp"

namespace iw::server {

/// SegmentDirectory's counters (util/counters.hpp).
#define IW_DIRECTORY_COUNTERS(X)                              \
  X(resolves)          /* placement lookups served */         \
  X(failover_resolves) /* lookups that probed the primary */  \
  X(probes_failed)     /* primaries found dead */             \
  X(promotions)        /* replicas promoted to primary */     \
  X(promote_ms_last)   /* duration of the latest promotion */ \
  X(promote_ms_max)    /* slowest promotion observed */

class SegmentDirectory {
 public:
  /// Opens a channel to the server at `address` (an opaque string the
  /// deployment understands — a port, host:port, or a test token). Must
  /// throw promptly when the server is unreachable; the dial timeout
  /// bounds the failover probe, so keep it well under the writer lease.
  using Dialer =
      std::function<std::shared_ptr<ClientChannel>(const std::string&)>;

  struct Options {
    /// Replicas per segment beyond the primary (clamped to nodes - 1).
    uint32_t replicas = 1;
  };

  /// One segment's server set: node ids, primary first, under one epoch.
  struct Placement {
    uint32_t epoch = 0;
    std::vector<std::string> nodes;
  };

  struct Stats {
    IW_DIRECTORY_COUNTERS(IW_COUNTER_FIELD)
  };

  SegmentDirectory(Options options, Dialer dial);

  /// Adds a server to the ring. Existing cached placements are untouched
  /// (segments do not migrate on membership change — only new resolutions
  /// see the new ring).
  void add_node(const std::string& id, const std::string& address);

  /// Registers a node, or updates a registered node's address in place — a
  /// restarted server rejoins the ring under its old id (typically at a
  /// new address) without reshuffling any placement.
  void set_node_address(const std::string& id, const std::string& address);

  /// Pins `segment` to an explicit server list (primary first), epoch 1.
  /// Overrides both the ring and any cached placement.
  void set_placement(const std::string& segment,
                     std::vector<std::string> node_ids);

  /// Current placement: the cached one, or a fresh ring walk (epoch 1).
  /// Throws kState when no nodes are registered.
  Placement resolve(const std::string& segment);

  /// Failover resolution: returns the current placement if its epoch
  /// already exceeds `observed_epoch` (another caller promoted first) or
  /// if the primary still answers a ping; otherwise promotes the
  /// most-caught-up reachable replica under epoch+1. Throws kIo when the
  /// primary is dead and no replica is reachable.
  Placement resolve_for_failover(const std::string& segment,
                                 uint32_t observed_epoch);

  /// Address registered for a node id (throws kNotFound).
  std::string address_of(const std::string& node_id) const;

  // --- repair-loop surface ---
  /// Segments with a cached placement: the repair loop's work list.
  std::vector<std::string> placed_segments() const;
  /// Cached placement of `segment` without resolving a fresh one (throws
  /// kNotFound when the segment was never resolved).
  Placement placement_of(const std::string& segment) const;
  /// Replaces `dead` with `substitute` in a segment's cached placement,
  /// preserving order. The epoch is NOT bumped: replica-tail membership
  /// changes, ownership does not, so clients' observed epochs stay valid.
  /// Throws kNotFound when the placement, `dead`, or `substitute` is
  /// unknown; kInvalidArgument when `substitute` is already placed.
  void substitute_replica(const std::string& segment, const std::string& dead,
                          const std::string& substitute);
  /// Registered node ids, in no particular order.
  std::vector<std::string> node_ids() const;
  /// Replicas-per-segment target from the options.
  uint32_t replica_target() const { return options_.replicas; }
  /// The directory's own dialer, shared with the repair loop.
  Dialer dialer() const { return dial_; }

  Stats stats() const;

 private:
  Placement compute_locked(const std::string& segment) const;
  std::string address_of_locked(const std::string& node_id) const;

  Options options_;
  Dialer dial_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> nodes_;  // id -> address
  /// Ring position -> node id. std::map gives the clockwise walk.
  std::map<uint64_t, std::string> ring_;
  std::unordered_map<std::string, Placement> placements_;

  struct Counters {
    IW_COUNTER_ATOMICS(IW_DIRECTORY_COUNTERS)
  };
  Counters counters_;
};

/// ReplicationRepairer's counters; the last is a gauge: segments below
/// their replication factor after the last tick.
#define IW_REPAIRER_COUNTERS(X)                                    \
  X(ticks)                                                         \
  X(failovers)               /* dead primaries promoted away */    \
  X(recruits_attempted)      /* kRecruit RPCs sent */              \
  X(recruits_failed)         /* kRecruit RPCs that threw */        \
  X(recruits_rejected_stale) /* refused: raced newer epoch */      \
  X(substitutions)           /* replicas replaced from the ring */ \
  X(under_replicated_segments)

/// Anti-entropy repair loop: periodically walks every placed segment and
/// restores its replication factor.
///
/// Each tick, per segment: (1) ping the primary, promoting the
/// most-caught-up replica via resolve_for_failover when it is dead — so
/// repair does not wait for a client to trip over the corpse; (2) send
/// kRecruit to every replica in the placement, which makes the replica
/// pull a backfill from the primary and re-establish its live WAL link
/// (idempotent: a caught-up replica's recruit degenerates to an empty
/// WAL-tail sync); (3) when a replica is unreachable, recruit a ring node
/// outside the placement in its stead and substitute it into the replica
/// tail. A kRecruit refused with kStaleEpoch means the repairer's view
/// raced a newer failover; the next tick re-reads the placement and
/// resolves toward the newer lineage.
///
/// tick() may be driven manually (tests) or by start()'s background
/// thread. Recruit RPCs block for the duration of the backfill, so a tick
/// is as slow as the largest transfer it triggers — acceptable for a
/// repair cadence, and it naturally rate-limits concurrent backfills.
class ReplicationRepairer {
 public:
  struct Stats {
    IW_REPAIRER_COUNTERS(IW_COUNTER_FIELD)
  };

  explicit ReplicationRepairer(SegmentDirectory& directory)
      : directory_(directory) {}
  ~ReplicationRepairer();

  ReplicationRepairer(const ReplicationRepairer&) = delete;
  ReplicationRepairer& operator=(const ReplicationRepairer&) = delete;

  /// One repair pass over every placed segment. Returns the number of
  /// segments still below their replication factor afterwards.
  uint64_t tick();

  /// Starts/stops the background loop (idempotent; destructor stops).
  void start();
  void stop();

  Stats stats() const;

 private:
  /// Sends one kRecruit; true on success. `transport_dead` (optional) is
  /// set when the node could not even be reached — the signal to
  /// substitute it, as opposed to an application-level refusal.
  bool recruit(const std::string& segment, uint32_t epoch,
               const std::string& node, const std::string& primary_address,
               bool* transport_dead);

  SegmentDirectory& directory_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread worker_;

  struct Counters {
    IW_COUNTER_ATOMICS(IW_REPAIRER_COUNTERS)
  };
  Counters counters_;
};

/// ServerCore fronting a SegmentDirectory, so clients in other processes
/// resolve placements over the wire (kDirResolve / kDirResolveResp, with
/// node addresses included so the caller can dial without a membership
/// view of its own).
class DirectoryCore final : public ServerCore {
 public:
  explicit DirectoryCore(SegmentDirectory& directory)
      : directory_(directory) {}

  void on_connect(SessionId, Notifier) override {}
  void on_disconnect(SessionId) override {}
  Frame handle(SessionId session, const Frame& request) override;

 private:
  SegmentDirectory& directory_;
};

/// Connector for a ReconnectingChannel that re-resolves `segment` through
/// an in-process directory on every (re)connect: the first call resolves
/// plainly; each later call — which only happens after the previous
/// connection died — resolves with failover, so a dead primary is probed
/// and a replica promoted before the client re-dials.
std::function<std::shared_ptr<ClientChannel>()> make_failover_connector(
    SegmentDirectory& directory, std::string segment,
    SegmentDirectory::Dialer dial);

/// Same contract, but resolution travels over a directory channel
/// (kDirResolve) built fresh per attempt by `dial_directory`, and the
/// primary is dialed by address from the response.
std::function<std::shared_ptr<ClientChannel>()> make_failover_connector(
    std::function<std::shared_ptr<ClientChannel>()> dial_directory,
    std::string segment, SegmentDirectory::Dialer dial);

}  // namespace iw::server
