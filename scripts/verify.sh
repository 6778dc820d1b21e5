#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the translation
# differential test again under UBSan (the plan engine's pointer/offset
# arithmetic is exactly what -fsanitize=undefined is good at catching),
# with the wire decoder suites beside it (varint decoding, gap-coded diff
# runs, the section envelope and the LZ codec: shift and bound arithmetic
# over bytes off the network), the checkpoint suite (a WAL-tail sync's
# fold-history tables and one diff are decoded from bytes off the network,
# and a journal record's body is read through the section envelope's
# decoder), and the
# heterogeneity suite (pointer units swizzled through block-relative
# tokens: offset arithmetic on 4-byte fields of a 64-bit process),
# then the lock protocol's model check under UBSan (LockTable's lease and
# revoke-deadline arithmetic on the times each event is handed, across
# every interleaving of three sessions), and the fault/lease/chaos suites
# under UBSan and TSan — the chaos workload's reconnect/lease
# interleavings are exactly what -fsanitize=thread is good at catching —
# plus the reactor transport suite (partial frames,
# server-side response coalescing, backpressure, leader/follower hand-offs
# past blocked handlers) and the TCP client channel suite (concurrent
# callers share one send mutex and a sticky send error, with no
# client-side coalescing; callers and the receiver pass one read token,
# decode header varints off the socket, route each other's responses and
# run notify handlers) under both sanitizers, and the chaos/lease suites
# again over TCP, so the epoll reactor's cross-thread outbox/retirement
# protocol is raced under TSan, as is the two-writer TCP stress test. The server concurrency suite runs under TSan as well:
# its raw TCP clients count notifications on the receiver thread while
# their own calls are in flight. So does the client heap's fault-registry
# concurrency test: two threads map and unmap client heaps while a third
# takes write faults, whose SIGSEGV handler reads the same registry.
# Lock caching and payload compression are part of the one protocol
# version, so every chaos/lease run above already carries cached reader
# locks (revokes arrive on each channel's receiver or calling thread, and their acks
# ride the client's background worker thread racing acquires, releases,
# and channel teardown — TSan bait by design), the section envelope, the
# LZ codec, and compressed journal recovery (every journal and replication
# record carries its body in the same section envelope, decoded where it
# is applied; the restart seeds in the recovery soak replay it); the
# lock-cache suite runs under both sanitizers too.
# The replication chaos suite (WAL streaming, directory failover, epoch
# fencing, and the fork+SIGKILL zero-lost-acks matrix) runs under UBSan,
# and its thread-safe subset plus a real-sockets failover lane under TSan —
# replicator link workers race committers, promoters, and teardown.
# A repeated-failover soak repeats the self-healing suites (sequential
# primary kills driven through the anti-entropy repair loop: promote,
# deposed-primary rejoin, replica backfill, byte-identical convergence)
# in-proc, over sockets, and against SIGKILLed forked processes.
# Then a recovery soak: repeated crash/restart cycles (the WAL crash
# matrix plus the restart-chaos workload) under UBSan, so recovery's
# byte-slicing replay path is exercised many times in one run.
# An ASan lane runs the suites whose code copies bytes in fixed chunks or
# into buffers sized ahead of their contents, which can go out of bounds in
# ways UBSan does not see: the LZ decoder's chunk copies (codec fuzz and
# end-of-output edges), the store's computed string/pointer slots, the
# snapshot and journal readers, and the reactor receiving a large frame
# straight into its payload buffer (plus the TCP client channel and the
# heterogeneity suite over both), the type registry's size checks (a
# type whose size wrapped 32 bits would overflow a 4-byte block, which
# ASan sees and UBSan does not), and the translation engine, whose element
# loop writes through a raw cursor into room reserved ahead from the
# plan's bound and copies strings in fixed-size chunks.
#
# Usage: scripts/verify.sh [build-dir] [ubsan-build-dir] [tsan-build-dir]
#                          [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
UBSAN_BUILD="${2:-build-ubsan}"
TSAN_BUILD="${3:-build-tsan}"
ASAN_BUILD="${4:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== differential translation + lock model + fault/lease/chaos tests under UBSan =="
cmake -B "$UBSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIW_SANITIZE=undefined
cmake --build "$UBSAN_BUILD" -j "$JOBS" \
      --target wire_translate_test wire_diff_test fuzz_protocol_test \
      server_store_test compress_interop_test checkpoint_test hetero_test \
      fault_test \
      lease_test chaos_test reactor_test net_tcp_test lock_cache_test \
      lock_table_test replication_chaos_test
for t in wire_translate_test wire_diff_test fuzz_protocol_test \
         server_store_test compress_interop_test checkpoint_test hetero_test; do
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/"$t"
done
for t in lock_table_test fault_test lease_test chaos_test reactor_test \
         net_tcp_test lock_cache_test replication_chaos_test; do
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/"$t"
done
echo "== replicated failover over real sockets under UBSan =="
IW_REPL_TRANSPORT=tcp UBSAN_OPTIONS=halt_on_error=1 \
    "$UBSAN_BUILD"/tests/replication_chaos_test \
    --gtest_filter='Seeds/ReplicationFailoverTest.*'
echo "== repeated-failover repair soak under UBSan =="
# Each repetition kills three sequential primaries per seed and drives the
# repair loop through promote/rejoin/backfill; in-proc and over sockets.
# The SIGKILL variant re-runs the same rounds against forked processes.
REPL_SOAK="${IW_REPL_SOAK:-3}"
for _ in $(seq "$REPL_SOAK"); do
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/replication_chaos_test \
      --gtest_filter='Seeds/RepeatedFailoverTest.*:SyncHandshakeTest.*' \
      --gtest_brief=1
  IW_REPL_TRANSPORT=tcp UBSAN_OPTIONS=halt_on_error=1 \
      "$UBSAN_BUILD"/tests/replication_chaos_test \
      --gtest_filter='Seeds/RepeatedFailoverTest.*' --gtest_brief=1
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/replication_chaos_test \
      --gtest_filter='Seeds/RepeatedSigkillRepairTest.*' --gtest_brief=1
done
echo "== chaos/lease suites over the reactor transport under UBSan =="
IW_CHAOS_TRANSPORT=tcp UBSAN_OPTIONS=halt_on_error=1 \
    "$UBSAN_BUILD"/tests/chaos_test --gtest_filter='Seeds/ChaosTest.*'
IW_LEASE_TRANSPORT=tcp UBSAN_OPTIONS=halt_on_error=1 \
    "$UBSAN_BUILD"/tests/lease_test

echo "== recovery soak: crash/restart cycles under UBSan =="
# Each repetition re-runs the fork+SIGKILL crash matrix and the seeded
# restart-chaos workload against freshly written journals/checkpoints.
cmake --build "$UBSAN_BUILD" -j "$JOBS" --target wal_recovery_test
SOAK="${IW_RECOVERY_SOAK:-5}"
for _ in $(seq "$SOAK"); do
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/wal_recovery_test \
      --gtest_brief=1
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/chaos_test \
      --gtest_filter='Seeds/RestartChaosTest.*' --gtest_brief=1
done

echo "== codec, store, recovery and transport tests under ASan =="
cmake -B "$ASAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIW_SANITIZE=address
ASAN_TESTS="fuzz_protocol_test server_store_test checkpoint_test \
    wal_recovery_test reactor_test net_tcp_test hetero_test \
    types_layout_test types_codec_test server_protocol_test \
    wire_translate_test"
# shellcheck disable=SC2086
cmake --build "$ASAN_BUILD" -j "$JOBS" --target $ASAN_TESTS
for t in $ASAN_TESTS; do
  ASAN_OPTIONS=halt_on_error=1 "$ASAN_BUILD"/tests/"$t"
done

echo "== fault/lease/chaos/concurrency tests under TSan =="
cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIW_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j "$JOBS" \
      --target fault_test lease_test chaos_test reactor_test net_tcp_test \
      lock_cache_test server_concurrency_test replication_chaos_test \
      client_heap_test stress_test
for t in fault_test lease_test chaos_test reactor_test net_tcp_test \
         lock_cache_test server_concurrency_test; do
  TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD"/tests/"$t"
done
# Two writers alternating over real sockets: handlers run on the thread
# that read their request while leadership passes between pool threads,
# and each caller reads its own response off its socket.
TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD"/tests/stress_test \
    --gtest_filter='Stress.TwoWritersAlternateOverTcp'
TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD"/tests/client_heap_test \
    --gtest_filter='FaultRegistryConcurrency.*'
# The SIGKILL suite forks a multi-threaded child, which TSan's runtime
# does not survive; the controlled-failover and directory suites carry the
# same replication/promotion races without fork.
TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD"/tests/replication_chaos_test \
    --gtest_filter='-*Sigkill*'
echo "== replicated failover over real sockets under TSan =="
IW_REPL_TRANSPORT=tcp TSAN_OPTIONS=halt_on_error=1 \
    "$TSAN_BUILD"/tests/replication_chaos_test \
    --gtest_filter='Seeds/ReplicationFailoverTest.*:Seeds/RepeatedFailoverTest.*'
echo "== chaos/lease suites over the reactor transport under TSan =="
IW_CHAOS_TRANSPORT=tcp TSAN_OPTIONS=halt_on_error=1 \
    "$TSAN_BUILD"/tests/chaos_test --gtest_filter='Seeds/ChaosTest.*'
IW_LEASE_TRANSPORT=tcp TSAN_OPTIONS=halt_on_error=1 \
    "$TSAN_BUILD"/tests/lease_test

echo "== verify.sh: all green =="
