#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the translation
# differential test again under UBSan (the plan engine's pointer/offset
# arithmetic is exactly what -fsanitize=undefined is good at catching),
# with the wire decoder suites beside it (varint decoding, gap-coded diff
# runs, the section envelope and the LZ codec: shift and bound arithmetic
# over bytes off the network), and the checkpoint suite (chain fold and
# sync backfill share one decoder of on-disk tail bytes),
# then the fault/lease/chaos suites under UBSan and TSan — the chaos
# workload's reconnect/lease interleavings are exactly what -fsanitize=thread
# is good at catching — plus the reactor transport suite (partial frames,
# server-side response coalescing, backpressure, worker-pool elasticity)
# and the TCP client channel suite (concurrent callers share one send
# mutex and a sticky send error, with no client-side coalescing; its
# receive loop decodes header varints off the socket, races the callers it
# hands frames to, and runs notify handlers itself) under both sanitizers, and the chaos/lease suites again over
# TCP, so the epoll reactor's cross-thread outbox/retirement protocol is
# raced under TSan. The server concurrency suite runs under TSan as well:
# its raw TCP clients count notifications on the receiver thread while
# their own calls are in flight. So does the client heap's fault-registry
# concurrency test: two threads map and unmap client heaps while a third
# takes write faults, whose SIGSEGV handler reads the same registry.
# Lock caching and payload compression are part of the one protocol
# version, so every chaos/lease run above already carries cached reader
# locks (revokes arrive on each channel's receiver thread, and their acks
# ride the client's background worker thread racing acquires, releases,
# and channel teardown — TSan bait by design), the section envelope, the
# LZ codec, and compressed journal/chain recovery (the restart seeds in the
# recovery soak); the lock-cache suite runs under both sanitizers too.
# The replication chaos suite (WAL streaming, directory failover, epoch
# fencing, and the fork+SIGKILL zero-lost-acks matrix) runs under UBSan,
# and its thread-safe subset plus a real-sockets failover lane under TSan —
# replicator link workers race committers, promoters, and teardown.
# A repeated-failover soak repeats the self-healing suites (sequential
# primary kills driven through the anti-entropy repair loop: promote,
# deposed-primary rejoin, replica backfill, byte-identical convergence)
# in-proc, over sockets, and against SIGKILLed forked processes.
# Finally a recovery soak: repeated crash/restart cycles (the WAL crash
# matrix plus the restart-chaos workload) under UBSan, so recovery's
# byte-slicing replay path is exercised many times in one run.
#
# Usage: scripts/verify.sh [build-dir] [ubsan-build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
UBSAN_BUILD="${2:-build-ubsan}"
TSAN_BUILD="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== differential translation + fault/lease/chaos tests under UBSan =="
cmake -B "$UBSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIW_SANITIZE=undefined
cmake --build "$UBSAN_BUILD" -j "$JOBS" \
      --target wire_translate_test wire_diff_test fuzz_protocol_test \
      server_store_test compress_interop_test checkpoint_test fault_test \
      lease_test chaos_test reactor_test net_tcp_test lock_cache_test \
      replication_chaos_test
for t in wire_translate_test wire_diff_test fuzz_protocol_test \
         server_store_test compress_interop_test checkpoint_test; do
  UBSAN_OPTIONS=halt_on_error=1 "$UBSAN_BUILD"/tests/"$t"
done
for t in fault_test lease_test chaos_test reactor_test net_tcp_test \
         lock_cache_test replication_chaos_test; do
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

echo "== fault/lease/chaos/concurrency tests under TSan =="
cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIW_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j "$JOBS" \
      --target fault_test lease_test chaos_test reactor_test net_tcp_test \
      lock_cache_test server_concurrency_test replication_chaos_test \
      client_heap_test
for t in fault_test lease_test chaos_test reactor_test net_tcp_test \
         lock_cache_test server_concurrency_test; do
  TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD"/tests/"$t"
done
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
