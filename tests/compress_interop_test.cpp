// Interop tests for payload compression: every session carries the
// method-byte envelope on every diff section, so whether a frame is
// compressed is a per-frame content decision. A client that never says
// hello compresses like any other, and a server with compression off
// still accepts compressed commits; every mix must converge
// byte-for-byte. Both byte directions are covered: commits (client ->
// server) and updates (server -> client).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "interweave/interweave.hpp"

namespace iw {
namespace {

class CompressInterop : public ::testing::Test {
 protected:
  static std::unique_ptr<Client> make_client(server::SegmentServer& core,
                                             Client::Options opts = {}) {
    return std::make_unique<Client>(
        [&core](const std::string&) {
          return std::make_shared<InProcChannel>(core);
        },
        opts);
  }

  // No reconnect supervisor, so no hello: the session is not a
  // lock-caching one, but its diff sections use the same envelope.
  static Client::Options without_hello() {
    Client::Options o;
    o.auto_reconnect = false;
    return o;
  }

  static const TypeDescriptor* int_array(Client& c, uint32_t n) {
    return c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), n);
  }
};

constexpr int kInts = 1024;  // 4 KiB of near-constant data: compressible

TEST_F(CompressInterop, PreCompressionPeersAgainstCompressingServer) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  // Both peers have the shape of a client from before compression: no
  // reconnect supervisor, so no hello. They still speak the envelope.
  auto writer = make_client(core, without_hello());
  auto reader = make_client(core, without_hello());

  ClientSegment* ws = writer->open_segment("host/legacy");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 7;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/legacy");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 7) << "at " << i;
  reader->read_unlock(rs);

  // Both directions compressed, and neither session was granted a cached
  // lock.
  EXPECT_GT(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(reader->stats().diffs_compressed, 0u);
  EXPECT_GT(core.stats().updates_compressed, 0u);
  EXPECT_EQ(core.stats().cached_read_grants, 0u);
}

TEST_F(CompressInterop, MixedFleetSharesOneSegment) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto plain = make_client(core, without_hello());
  auto hello = make_client(core);

  // Client without hello -> server: the commit shrinks in the envelope.
  ClientSegment* ps = plain->open_segment("host/nohello");
  plain->write_lock(ps);
  auto* d = static_cast<int32_t*>(
      plain->malloc_block(ps, int_array(*plain, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 5;
  plain->write_unlock(ps);
  EXPECT_GT(plain->stats().diffs_compressed, 0u);

  // The other client writes back; the update to the client without hello
  // ships compressed as well.
  ClientSegment* hs = hello->open_segment("host/nohello");
  hello->write_lock(hs);
  auto* hw = const_cast<int32_t*>(reinterpret_cast<const int32_t*>(
      hs->heap().find_by_name("data")->data()));
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(hw[i], 5) << "at " << i;
  for (int i = 0; i < kInts; ++i) hw[i] = 6;
  hello->write_unlock(hs);

  const uint64_t updates_before = core.stats().updates_compressed;
  plain->read_lock(ps);
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(d[i], 6) << "at " << i;
  plain->read_unlock(ps);
  EXPECT_GT(core.stats().updates_compressed, updates_before);
  EXPECT_EQ(plain->stats().lock_cache_hits, 0u);
  EXPECT_EQ(core.stats().cached_read_grants, 0u)
      << "a client without hello is never granted a cached lock";
}

TEST_F(CompressInterop, RawServerAcceptsCompressedCommits) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("iw-rawsrv-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    server::SegmentServer::Options sopts;
    sopts.compress_payloads = false;  // encodes raw, decodes anything
    sopts.checkpoint_dir = dir.string();  // journal on: commits are encoded
    server::SegmentServer core(sopts);

    auto writer = make_client(core);
    auto reader = make_client(core);

    ClientSegment* ws = writer->open_segment("host/rawsrv");
    writer->write_lock(ws);
    auto* d = static_cast<int32_t*>(
        writer->malloc_block(ws, int_array(*writer, kInts), "data"));
    for (int i = 0; i < kInts; ++i) d[i] = 42;
    writer->write_unlock(ws);

    ClientSegment* rs = reader->open_segment("host/rawsrv");
    reader->read_lock(rs);
    auto* block = rs->heap().find_by_name("data");
    ASSERT_NE(block, nullptr);
    const auto* rd = reinterpret_cast<const int32_t*>(block->data());
    for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 42) << "at " << i;
    reader->read_unlock(rs);

    EXPECT_GT(writer->stats().diffs_compressed, 0u);
    auto stats = core.stats();
    EXPECT_EQ(stats.commits_compressed, 0u);
    EXPECT_EQ(stats.updates_compressed, 0u);
    EXPECT_GT(stats.commit_raw_bytes, 0u) << "the commit was journaled";
  }
  std::filesystem::remove_all(dir);
}

TEST_F(CompressInterop, NegotiatedPairCompressesBothDirections) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto writer = make_client(core);
  auto reader = make_client(core);

  ClientSegment* ws = writer->open_segment("host/both");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "data"));
  for (int i = 0; i < kInts; ++i) d[i] = 1;
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/both");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("data");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  for (int i = 0; i < kInts; ++i) ASSERT_EQ(rd[i], 1) << "at " << i;
  reader->read_unlock(rs);

  // Client -> server: the 4 KiB constant diff shrank inside the envelope.
  EXPECT_GT(writer->stats().diffs_compressed, 0u);
  // Server -> client: the reader's update shipped compressed, and the
  // wire accounting shows the reduction.
  auto stats = core.stats();
  EXPECT_GT(stats.updates_compressed, 0u);
  EXPECT_LT(stats.update_wire_bytes, stats.update_raw_bytes);
}

TEST_F(CompressInterop, IncompressibleDiffsStayRawInsideTheEnvelope) {
  server::SegmentServer::Options sopts;
  sopts.compress_payloads = true;
  server::SegmentServer core(sopts);

  auto writer = make_client(core);
  auto reader = make_client(core);

  // A high-entropy payload (xorshift stream) defeats the LZ pass; the
  // per-frame decision must fall back to the raw method byte and the
  // data must still round-trip.
  ClientSegment* ws = writer->open_segment("host/entropy");
  writer->write_lock(ws);
  auto* d = static_cast<int32_t*>(
      writer->malloc_block(ws, int_array(*writer, kInts), "noise"));
  uint32_t x = 0x9e3779b9u;
  for (int i = 0; i < kInts; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    d[i] = static_cast<int32_t>(x);
  }
  writer->write_unlock(ws);

  ClientSegment* rs = reader->open_segment("host/entropy");
  reader->read_lock(rs);
  auto* block = rs->heap().find_by_name("noise");
  ASSERT_NE(block, nullptr);
  const auto* rd = reinterpret_cast<const int32_t*>(block->data());
  uint32_t y = 0x9e3779b9u;
  for (int i = 0; i < kInts; ++i) {
    y ^= y << 13;
    y ^= y >> 17;
    y ^= y << 5;
    ASSERT_EQ(rd[i], static_cast<int32_t>(y)) << "at " << i;
  }
  reader->read_unlock(rs);

  EXPECT_EQ(writer->stats().diffs_compressed, 0u);
  EXPECT_EQ(core.stats().updates_compressed, 0u);
}

}  // namespace
}  // namespace iw
