// One counter table per component.
//
// A component names its counters once, in an X-macro list in the style of
//
//   #define IW_FOO_COUNTERS(X) X(hits) X(misses)
//
// and expands that list twice: with IW_COUNTER_FIELD into the plain
// snapshot struct its callers read, and with IW_COUNTER_ATOMICS into the
// relaxed atomics its hot paths bump (never under a lock). The atomics come
// with snapshot_into(), which copies every counter into the same-named
// field of any snapshot struct, so adding a counter is one line in one list.
#pragma once

#include <atomic>
#include <cstdint>

#define IW_COUNTER_FIELD(name) uint64_t name = 0;
#define IW_COUNTER_ATOMIC(name) std::atomic<uint64_t> name{0};
#define IW_COUNTER_LOAD(name) out.name = name.load(std::memory_order_relaxed);
#define IW_COUNTER_CLEAR(name) name.store(0, std::memory_order_relaxed);

/// Members of a counter table: one relaxed atomic per counter in LIST plus
/// snapshot_into(out), which loads each into `out`'s field of that name.
#define IW_COUNTER_ATOMICS(LIST)                     \
  LIST(IW_COUNTER_ATOMIC)                            \
  template <typename Snapshot>                       \
  void snapshot_into(Snapshot& out) const noexcept { \
    LIST(IW_COUNTER_LOAD)                            \
  }
