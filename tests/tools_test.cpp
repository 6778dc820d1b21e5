// End-to-end tests for the CLI tools (iwidlc, iwinspect) run as real
// subprocesses against in-test servers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "interweave/interweave.hpp"
#include "server/wal.hpp"
#include "util/endian.hpp"

namespace iw {
namespace {

namespace fs = std::filesystem;

std::string run_command(const std::string& command, int* exit_code) {
  std::string output;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed";
    *exit_code = -1;
    return output;
  }
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  int status = ::pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return output;
}

TEST(Iwidlc, GeneratesHeader) {
  fs::path dir = fs::temp_directory_path() / "iw-tools-test";
  fs::create_directories(dir);
  fs::path idl = dir / "t.idl";
  {
    std::ofstream f(idl);
    f << "enum kind_t { A, B = 3 };\n"
         "struct rec { int id; string<8> tag; rec *next; };\n";
  }
  int code = 0;
  std::string out = run_command(std::string(IWIDLC_PATH) + " -n demo " +
                                idl.string(), &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("namespace demo"), std::string::npos);
  EXPECT_NE(out.find("enum kind_t : int32_t"), std::string::npos);
  EXPECT_NE(out.find("struct rec {"), std::string::npos);
  EXPECT_NE(out.find("static_assert(sizeof(rec)"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Iwidlc, RejectsBadIdl) {
  fs::path dir = fs::temp_directory_path() / "iw-tools-test2";
  fs::create_directories(dir);
  fs::path idl = dir / "bad.idl";
  {
    std::ofstream f(idl);
    f << "struct s { nope x; };\n";
  }
  int code = 0;
  std::string out = run_command(std::string(IWIDLC_PATH) + " " + idl.string(),
                                &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("undeclared type"), std::string::npos) << out;
  fs::remove_all(dir);
}

TEST(Iwinspect, DirectoryAndDataDump) {
  server::SegmentServer core;
  TcpServer server(core, 0);

  // Seed a segment with typed data.
  Client c([&](const std::string&) {
    return std::make_shared<TcpClientChannel>(server.port());
  });
  const TypeDescriptor* rec = c.types().struct_builder("rec")
      .field("id", c.types().primitive(PrimitiveKind::kInt32))
      .field("score", c.types().primitive(PrimitiveKind::kFloat64))
      .field("tag", c.types().string_type(8))
      .self_pointer_field("next")
      .finish();
  ClientSegment* seg = c.open_segment("tool/demo");
  c.write_lock(seg);
  struct Rec { int32_t id; double score; char tag[8]; void* next; };
  auto* a = static_cast<Rec*>(c.malloc_block(seg, rec, "alpha"));
  a->id = 17;
  a->score = 2.5;
  std::snprintf(a->tag, sizeof a->tag, "hey");
  auto* b = static_cast<Rec*>(c.malloc_block(seg, rec));
  b->id = 18;
  a->next = b;
  c.write_unlock(seg);

  std::string base = std::string(IWINSPECT_PATH) + " --port=" +
                     std::to_string(server.port());
  int code = 0;
  std::string dir_out = run_command(base + " tool/demo", &code);
  EXPECT_EQ(code, 0) << dir_out;
  EXPECT_NE(dir_out.find("version  2"), std::string::npos) << dir_out;
  EXPECT_NE(dir_out.find("struct rec"), std::string::npos);
  EXPECT_NE(dir_out.find("alpha"), std::string::npos);

  std::string data_out = run_command(base + " --data tool/demo", &code);
  EXPECT_EQ(code, 0) << data_out;
  EXPECT_NE(data_out.find("block #1 alpha"), std::string::npos) << data_out;
  EXPECT_NE(data_out.find("17"), std::string::npos);
  EXPECT_NE(data_out.find("2.5"), std::string::npos);
  EXPECT_NE(data_out.find("\"hey\""), std::string::npos);
  EXPECT_NE(data_out.find("-> tool/demo#2#0"), std::string::npos);
  EXPECT_NE(data_out.find("(null)"), std::string::npos);
}

TEST(Iwinspect, DumpsJournalAndCheckpointChain) {
  fs::path dir = fs::temp_directory_path() / "iw-tools-walchain";
  fs::remove_all(dir);

  // A durable server under churn leaves behind a compressed journal for the
  // offline mode to dump.
  {
    server::SegmentServer::Options sopts;
    sopts.checkpoint_dir = dir.string();
    sopts.checkpoint_every = 2;
    sopts.compress_payloads = true;
    server::SegmentServer core(sopts);
    TcpServer server(core, 0);
    Client c([&](const std::string&) {
      return std::make_shared<TcpClientChannel>(server.port());
    });
    const TypeDescriptor* arr =
        c.types().array_of(c.types().primitive(PrimitiveKind::kInt32), 256);
    ClientSegment* seg = c.open_segment("tool/disk");
    for (int round = 0; round < 7; ++round) {
      c.write_lock(seg);
      auto* d = static_cast<int32_t*>(
          round == 0 ? c.malloc_block(seg, arr, "data")
                     : const_cast<uint8_t*>(
                           seg->heap().find_by_name("data")->data()));
      for (int i = 0; i < 256; ++i) d[i] = round;
      c.write_unlock(seg);
    }
  }

  fs::path wal;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".iwlog") wal = entry.path();
    EXPECT_NE(entry.path().extension(), ".iwinc") << entry.path();
  }
  ASSERT_FALSE(wal.empty());

  int code = 0;
  std::string wal_out = run_command(
      std::string(IWINSPECT_PATH) + " --wal " + wal.string(), &code);
  EXPECT_EQ(code, 0) << wal_out;
  EXPECT_NE(wal_out.find("journal"), std::string::npos) << wal_out;
  EXPECT_NE(wal_out.find("commit"), std::string::npos) << wal_out;
  EXPECT_NE(wal_out.find("(compressed)"), std::string::npos) << wal_out;

  // There are no checkpoint chains to dump: --chain is an unknown option.
  std::string chain_out = run_command(
      std::string(IWINSPECT_PATH) + " --chain " + wal.string(), &code);
  EXPECT_EQ(code, 2) << chain_out;
  EXPECT_NE(chain_out.find("usage:"), std::string::npos) << chain_out;
  EXPECT_EQ(chain_out.find("--chain"), std::string::npos) << chain_out;

  // A journal recovery cuts is first set aside whole as `.iwlog.corrupt`,
  // which dumps like any journal, its torn tail included.
  {
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    const uint8_t torn[] = {0, 0, 0, 9, 1, 2, 3};
    f.write(reinterpret_cast<const char*>(torn), sizeof torn);
  }
  {
    server::SegmentServer::Options sopts;
    sopts.checkpoint_dir = dir.string();
    server::SegmentServer core(sopts);
    core.recover();
    EXPECT_EQ(core.stats().wal_truncated_bytes, 7u);
  }
  std::string corrupt_out = run_command(
      std::string(IWINSPECT_PATH) + " --wal " + wal.string() + ".corrupt",
      &code);
  EXPECT_EQ(code, 0) << corrupt_out;
  EXPECT_NE(corrupt_out.find("commit"), std::string::npos) << corrupt_out;
  EXPECT_NE(corrupt_out.find("torn tail: 7 bytes"), std::string::npos)
      << corrupt_out;

  // A second cut keeps that copy and sets its own aside as `.corrupt.1`.
  {
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    const uint8_t torn[] = {0, 0, 0, 9, 1, 2, 3, 4};
    f.write(reinterpret_cast<const char*>(torn), sizeof torn);
  }
  {
    server::SegmentServer::Options sopts;
    sopts.checkpoint_dir = dir.string();
    server::SegmentServer core(sopts);
    core.recover();
    EXPECT_EQ(core.stats().wal_truncated_bytes, 8u);
  }
  EXPECT_EQ(run_command(std::string(IWINSPECT_PATH) + " --wal " +
                            wal.string() + ".corrupt",
                        &code),
            corrupt_out);
  std::string second_out = run_command(
      std::string(IWINSPECT_PATH) + " --wal " + wal.string() + ".corrupt.1",
      &code);
  EXPECT_EQ(code, 0) << second_out;
  EXPECT_NE(second_out.find("commit"), std::string::npos) << second_out;
  EXPECT_NE(second_out.find("torn tail: 8 bytes"), std::string::npos)
      << second_out;

  std::string missing_out = run_command(
      std::string(IWINSPECT_PATH) + " --wal " + (dir / "nope.iwlog").string(),
      &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(missing_out.find("no such journal"), std::string::npos)
      << missing_out;
  fs::remove_all(dir);
}

TEST(Iwinspect, NamesEpochAdoptRecords) {
  fs::path dir = fs::temp_directory_path() / "iw-tools-epoch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "seg.iwlog").string();
  {
    server::WriteAheadLog wal(path, {});
    Buffer name;
    name.append_lp_string("tool/epoch");
    wal.append(server::WalRecordType::kSegmentCreate, name.span());
    uint8_t epoch[4];
    store_be32(epoch, 7);
    wal.append(server::WalRecordType::kEpochAdopt, {epoch, sizeof epoch});
  }
  int code = 0;
  std::string out = run_command(
      std::string(IWINSPECT_PATH) + " --wal " + path, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("epoch-adopt"), std::string::npos) << out;
  EXPECT_NE(out.find(" e7 "), std::string::npos) << out;
  EXPECT_EQ(out.find("?"), std::string::npos) << out;
  fs::remove_all(dir);
}

TEST(Iwinspect, MissingSegmentFailsCleanly) {
  server::SegmentServer core;
  TcpServer server(core, 0);
  int code = 0;
  std::string out = run_command(std::string(IWINSPECT_PATH) + " --port=" +
                                    std::to_string(server.port()) +
                                    " tool/nope",
                                &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("NotFound"), std::string::npos) << out;
}

}  // namespace
}  // namespace iw
