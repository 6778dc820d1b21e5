// Frame-level protocol tests against SegmentServer: every message type's
// success and failure paths, independent of the client library.
#include <gtest/gtest.h>

#include <map>

#include "net/inproc.hpp"
#include "server/server.hpp"
#include "types/registry.hpp"
#include "wire/coherence.hpp"
#include "wire/diff.hpp"
#include "wire/payload.hpp"

namespace iw {
namespace {

/// The segment handle these tests bind `name` to: one stable number per
/// name, so every session that opens the segment binds the same one.
uint32_t handle_of(const std::string& name) {
  static std::map<std::string, uint32_t> handles;
  return handles.try_emplace(name, handles.size() + 1).first->second;
}

class Protocol : public ::testing::Test {
 protected:
  Frame call(InProcChannel& ch, MsgType type,
             const std::function<void(Buffer&)>& fill) {
    Buffer payload;
    fill(payload);
    return ch.call(type, std::move(payload));
  }

  ErrorCode call_expect_error(InProcChannel& ch, MsgType type,
                              const std::function<void(Buffer&)>& fill) {
    try {
      call(ch, type, fill);
    } catch (const Error& e) {
      return e.code();
    }
    ADD_FAILURE() << "expected error";
    return ErrorCode::kInternal;
  }

  /// Opens `name` on `ch`. A session binds a handle only after kHello, so
  /// this says hello first (a repeated hello is harmless).
  void open(InProcChannel& ch, const std::string& name) {
    ch.call(MsgType::kHello, hello_payload());
    call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_varint(handle_of(name));
      p.append_vstring(name);
      p.append_u8(1);
    });
  }

  uint32_t register_int_array(InProcChannel& ch, const std::string& seg,
                              uint32_t n) {
    TypeRegistry scratch(Platform::native().rules);
    Frame resp = call(ch, MsgType::kRegisterType, [&](Buffer& p) {
      p.append_varint(handle_of(seg));
      TypeCodec::encode_graph(
          scratch.array_of(scratch.primitive(PrimitiveKind::kInt32), n), p);
    });
    BufReader r = resp.reader();
    return r.read_varint32();
  }

  server::SegmentServer server_;
};

TEST_F(Protocol, PingPong) {
  InProcChannel ch(server_);
  Frame resp = call(ch, MsgType::kPing, [](Buffer&) {});
  EXPECT_EQ(resp.type, MsgType::kPingResp);
}

TEST_F(Protocol, OpenCreatesOnce) {
  InProcChannel ch(server_);
  open(ch, "p/seg");
  Frame resp = call(ch, MsgType::kOpenSegment, [](Buffer& p) {
    p.append_varint(handle_of("p/seg"));
    p.append_vstring("p/seg");
    p.append_u8(0);  // no create; must already exist
  });
  BufReader r = resp.reader();
  EXPECT_EQ(r.read_varint32(), 1u);  // version
  EXPECT_EQ(r.read_varint32(), 1u);  // next serial
}

TEST_F(Protocol, RegisterTypeDedupsAcrossSessions) {
  InProcChannel a(server_);
  InProcChannel b(server_);
  open(a, "p/types");
  open(b, "p/types");
  EXPECT_EQ(register_int_array(a, "p/types", 10), 1u);
  EXPECT_EQ(register_int_array(b, "p/types", 10), 1u);
  EXPECT_EQ(register_int_array(b, "p/types", 20), 2u);
}

TEST_F(Protocol, RegisterTypeOnMissingSegmentFails) {
  InProcChannel ch(server_);
  // A hello may bind a name the server does not have; the first frame
  // naming it finds no segment.
  ch.call(MsgType::kHello,
          hello_payload(9, 1, {{handle_of("p/nope"), "p/nope"}}));
  EXPECT_EQ(call_expect_error(ch, MsgType::kRegisterType, [&](Buffer& p) {
    p.append_varint(handle_of("p/nope"));
    TypeRegistry scratch(Platform::native().rules);
    TypeCodec::encode_graph(scratch.primitive(PrimitiveKind::kInt32), p);
  }), ErrorCode::kNotFound);
}

TEST_F(Protocol, ReleaseWithoutAcquireFails) {
  InProcChannel ch(server_);
  open(ch, "p/lock");
  EXPECT_EQ(call_expect_error(ch, MsgType::kReleaseWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/lock"));
    p.append_u8(payload_method::kRaw);
    DiffWriter(p, 1, 1).finish();
  }), ErrorCode::kState);
}

TEST_F(Protocol, DoubleAcquireBySameSessionFails) {
  InProcChannel ch(server_);
  open(ch, "p/dbl");
  call(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/dbl"));
    p.append_varint(0);
  });
  EXPECT_EQ(call_expect_error(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/dbl"));
    p.append_varint(0);
  }), ErrorCode::kState);
}

TEST_F(Protocol, WriteLockFlowWithRealDiff) {
  InProcChannel ch(server_);
  open(ch, "p/flow");
  uint32_t type_serial = register_int_array(ch, "p/flow", 8);

  Frame acq = call(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/flow"));
    p.append_varint(0);
  });
  BufReader ar = acq.reader();
  uint32_t next_serial = ar.read_varint32();
  EXPECT_EQ(next_serial, 1u);

  Frame rel = call(ch, MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(handle_of("p/flow"));
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(next_serial, diff_flags::kNew | diff_flags::kWhole,
                  type_serial, "blk");
    w.begin_run(0, 8);
    for (int i = 0; i < 8; ++i) p.append_u32(i * 11);
    w.end_block();
    w.finish();
  });
  BufReader rr = rel.reader();
  EXPECT_EQ(rr.read_varint32(), 2u);  // new version

  // A fresh read from version 0 returns the block and the type.
  Frame read = call(ch, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/flow"));
    p.append_varint(0);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  });
  BufReader r = read.reader();
  EXPECT_EQ(r.read_u8(), 1);
  uint32_t n_types = r.read_varint32();
  EXPECT_EQ(n_types, 0u) << "this session already knows the type";
  EXPECT_EQ(r.read_u8(), payload_method::kRaw) << "too small to compress";
  BufReader diff_r = r;
  DiffReader dr(diff_r);
  EXPECT_EQ(dr.to_version(), 2u);
  DiffEntry e;
  ASSERT_TRUE(dr.next(&e));
  EXPECT_TRUE(e.flags & diff_flags::kNew);
  EXPECT_EQ(e.name, "blk");
}

TEST_F(Protocol, FreshFetchIsTheDiffFromTheEmptySegment) {
  InProcChannel writer(server_);
  open(writer, "p/fresh");
  const uint32_t type_serial = register_int_array(writer, "p/fresh", 4);
  call(writer, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/fresh"));
    p.append_varint(0);
  });
  call(writer, MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(handle_of("p/fresh"));
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial, "b");
    w.begin_run(0, 4);
    for (int i = 0; i < 4; ++i) p.append_u32(i);
    w.end_block();
    w.finish();
  });

  // The base of the diff a reader reporting `version` is sent.
  InProcChannel reader(server_);
  open(reader, "p/fresh");
  auto base_for = [&](uint32_t version, CoherencePolicy policy) {
    Frame resp = call(reader, MsgType::kAcquireRead, [&](Buffer& p) {
      p.append_varint(handle_of("p/fresh"));
      p.append_varint(version);
      p.append_u8(static_cast<uint8_t>(policy.model));
      p.append_varint(policy.param);
    });
    BufReader r = resp.reader();
    EXPECT_EQ(r.read_u8(), 1) << "a copy at v" << version << " must fetch";
    for (uint32_t n = r.read_varint32(); n > 0; --n) {
      r.read_varint32();
      r.read_bytes(r.read_varint32());
    }
    EXPECT_EQ(r.read_u8(), payload_method::kRaw);
    DiffReader dr(r);
    EXPECT_EQ(dr.to_version(), 2u);
    EXPECT_EQ(dr.entry_count(), 1u);
    return dr.from_version();
  };
  // A copy that holds nothing is sent the diff from the empty segment
  // (version 1), under every coherence model.
  EXPECT_EQ(base_for(0, CoherencePolicy::full()), 1u);
  EXPECT_EQ(base_for(0, CoherencePolicy::delta(5)), 1u);
  EXPECT_EQ(base_for(0, CoherencePolicy::temporal(60'000)), 1u);
  EXPECT_EQ(base_for(0, CoherencePolicy::diff(50)), 1u);
  // A copy ahead of the server (it recovered an older state) is sent the
  // from-0 resync.
  EXPECT_EQ(base_for(9, CoherencePolicy::full()), 0u);
}

TEST_F(Protocol, OversizedTypeGraphIsRefused) {
  InProcChannel ch(server_);
  open(ch, "p/oversized");
  // int32[2^30 + 1]: its 4 GiB + 4 local size would wrap to 4 bytes.
  EXPECT_EQ(call_expect_error(ch, MsgType::kRegisterType, [](Buffer& p) {
    p.append_varint(handle_of("p/oversized"));
    p.append_u32(2);
    p.append_u8(3);  // array
    p.append_u64((uint64_t{1} << 30) + 1);
    p.append_u32(1);
    p.append_u8(0);  // primitive
    p.append_u8(static_cast<uint8_t>(PrimitiveKind::kInt32));
  }), ErrorCode::kProtocol);

  // No type was registered, so no block of it can be made.
  call(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/oversized"));
    p.append_varint(0);
  });
  EXPECT_EQ(call_expect_error(ch, MsgType::kReleaseWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/oversized"));
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, 1, "");
    w.begin_run(0, 2);
    p.append_u32(1);
    p.append_u32(2);
    w.end_block();
    w.finish();
  }), ErrorCode::kProtocol);
  EXPECT_EQ(server_.segment_version("p/oversized"), 1u);
  EXPECT_EQ(register_int_array(ch, "p/oversized", 4), 1u)
      << "the refused graph took a type serial";
}

TEST_F(Protocol, SecondSessionGetsTypeDefinitions) {
  InProcChannel a(server_);
  InProcChannel b(server_);
  open(a, "p/tsync");
  uint32_t type_serial = register_int_array(a, "p/tsync", 4);
  call(a, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/tsync"));
    p.append_varint(0);
  });
  call(a, MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(handle_of("p/tsync"));
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial, "");
    w.begin_run(0, 4);
    for (int i = 0; i < 4; ++i) p.append_u32(i);
    w.end_block();
    w.finish();
  });

  open(b, "p/tsync");
  Frame read = call(b, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/tsync"));
    p.append_varint(0);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  });
  BufReader r = read.reader();
  EXPECT_EQ(r.read_u8(), 1);
  uint32_t n_types = r.read_varint32();
  ASSERT_EQ(n_types, 1u) << "b has never seen the type";
  EXPECT_EQ(r.read_varint32(), type_serial);
}

TEST_F(Protocol, SubscribeAndNotify) {
  InProcChannel writer(server_);
  InProcChannel watcher(server_);
  open(writer, "p/watch");
  uint32_t type_serial = register_int_array(writer, "p/watch", 4);

  std::vector<std::pair<std::string, uint32_t>> notes;
  watcher.set_notify_handler([&](const Frame& f) {
    if (f.type != MsgType::kNotifyVersion) return;
    BufReader r = f.reader();
    std::string seg = r.read_vstring();
    notes.emplace_back(seg, r.read_varint32());
  });
  open(watcher, "p/watch");
  call(watcher, MsgType::kSubscribe, [](Buffer& p) {
    p.append_varint(handle_of("p/watch"));
  });

  call(writer, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/watch"));
    p.append_varint(0);
  });
  call(writer, MsgType::kReleaseWrite, [&](Buffer& p) {
    p.append_varint(handle_of("p/watch"));
    p.append_u8(payload_method::kRaw);
    DiffWriter w(p, 1, 2);
    w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial, "");
    w.begin_run(0, 4);
    for (int i = 0; i < 4; ++i) p.append_u32(i);
    w.end_block();
    w.finish();
  });
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].first, "p/watch");
  EXPECT_EQ(notes[0].second, 2u);
}

TEST_F(Protocol, DisconnectReleasesWriterLock) {
  auto holder = std::make_unique<InProcChannel>(server_);
  open(*holder, "p/orphan");
  call(*holder, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/orphan"));
    p.append_varint(0);
  });
  holder.reset();  // disconnect while holding the lock

  InProcChannel other(server_);
  open(other, "p/orphan");
  Frame resp = call(other, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/orphan"));
    p.append_varint(0);
  });
  EXPECT_EQ(resp.type, MsgType::kAcquireWriteResp);
}

TEST_F(Protocol, DeltaCoherenceAnsweredServerSide) {
  InProcChannel writer(server_);
  InProcChannel reader(server_);
  open(writer, "p/delta");
  uint32_t type_serial = register_int_array(writer, "p/delta", 4);
  auto write_once = [&](uint32_t base) {
    call(writer, MsgType::kAcquireWrite, [](Buffer& p) {
      p.append_varint(handle_of("p/delta"));
      p.append_varint(0);
    });
    call(writer, MsgType::kReleaseWrite, [&](Buffer& p) {
      p.append_varint(handle_of("p/delta"));
      p.append_u8(payload_method::kRaw);
      DiffWriter w(p, base, base + 1);
      if (base == 1) {
        w.begin_block(1, diff_flags::kNew | diff_flags::kWhole, type_serial, "");
      } else {
        w.begin_block(1, 0);
      }
      w.begin_run(0, 1);
      p.append_u32(base);
      w.end_block();
      w.finish();
    });
  };
  write_once(1);  // v2
  // Reader syncs to v2.
  open(reader, "p/delta");
  call(reader, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/delta"));
    p.append_varint(0);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  });
  write_once(2);  // v3
  // Delta-2 read at v2: one behind, "recent enough".
  Frame resp = call(reader, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/delta"));
    p.append_varint(2);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kDelta));
    p.append_varint(2);
  });
  BufReader r = resp.reader();
  EXPECT_EQ(r.read_u8(), 0);
}

TEST_F(Protocol, HelloWithOtherVersionIsRefusedAndNeverCaches) {
  auto read_full = [&](InProcChannel& ch) {
    Frame resp = call(ch, MsgType::kAcquireRead, [](Buffer& p) {
      p.append_varint(handle_of("p/hello"));
      p.append_varint(1);  // the empty segment's version
      p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
      p.append_varint(0);
    });
    BufReader r = resp.reader();
    EXPECT_EQ(r.read_u8(), 0) << "already up to date";
    return r.read_u8();  // grant byte
  };
  InProcChannel other(server_);
  try {
    call(other, MsgType::kHello, [](Buffer& p) {
      p.append_u8(kProtocolVersion + 1);
      p.append_varint(7);
      p.append_varint(1);
      p.append_varint(0);  // no bindings
    });
    ADD_FAILURE() << "a foreign protocol version was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    const std::string what = e.what();
    EXPECT_NE(what.find("version " + std::to_string(kProtocolVersion + 1)),
              std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kProtocolVersion)), std::string::npos)
        << what;
  }
  // Refused, the session may not bind a handle, so it never reaches a lock
  // frame, let alone a cached grant. Handle 0 binds nothing and needs no
  // hello: it still creates the segment.
  EXPECT_EQ(call_expect_error(other, MsgType::kOpenSegment, [](Buffer& p) {
    p.append_varint(handle_of("p/hello"));
    p.append_vstring("p/hello");
    p.append_u8(1);
  }), ErrorCode::kProtocol);
  call(other, MsgType::kOpenSegment, [](Buffer& p) {
    p.append_varint(0);
    p.append_vstring("p/hello");
    p.append_u8(1);
  });
  EXPECT_EQ(call_expect_error(other, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/hello"));
    p.append_varint(1);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  }), ErrorCode::kProtocol);
  EXPECT_EQ(server_.stats().cached_read_grants, 0u);

  // The same requests after a hello in this protocol version are granted.
  InProcChannel current(server_);
  Frame resp = current.call(
      MsgType::kHello,
      hello_payload(8, 1, {{handle_of("p/hello"), "p/hello"}}));
  EXPECT_EQ(resp.type, MsgType::kHelloResp);
  EXPECT_EQ(read_full(current), 1);
  EXPECT_EQ(server_.stats().cached_read_grants, 1u);
}

TEST_F(Protocol, ReleaseReadIsRefused) {
  // A cached read lock ends with a kRevokeAck or the next acquire, so no
  // peer sends kReleaseRead: the server refuses it like any other
  // unexpected type, and the grant it would have named stays.
  InProcChannel ch(server_);
  open(ch, "p/release-read");
  Frame resp = call(ch, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/release-read"));
    p.append_varint(1);  // the empty segment's version
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  });
  BufReader r = resp.reader();
  EXPECT_EQ(r.read_u8(), 0) << "already up to date";
  EXPECT_EQ(r.read_u8(), 1) << "cached lock not granted";
  for (uint8_t keep_cached : {0, 1}) {
    EXPECT_EQ(call_expect_error(ch, MsgType::kReleaseRead, [&](Buffer& p) {
      p.append_varint(handle_of("p/release-read"));
      p.append_u8(keep_cached);
    }), ErrorCode::kProtocol) << int{keep_cached};
  }
  EXPECT_EQ(server_.stats().cached_read_grants, 1u);
  // The session carries on.
  EXPECT_EQ(call(ch, MsgType::kPing, [](Buffer&) {}).type,
            MsgType::kPingResp);
}

TEST_F(Protocol, TruncatedHelloIsProtocolError) {
  InProcChannel ch(server_);
  EXPECT_EQ(call_expect_error(ch, MsgType::kHello, [](Buffer& p) {
    p.append_u8(kProtocolVersion);  // client id and epoch missing
  }), ErrorCode::kProtocol);
}

TEST_F(Protocol, HelloWithProtocolVersionOneIsRefused) {
  // Version 1 named segments by URL in every frame, version 2 sent
  // pointers as MIP strings, version 3 journal records in their own
  // envelope, and a version-4 client refuses the diff from the empty
  // segment that a fresh fetch is sent now.
  for (uint8_t version : {1, 2, 3, 4}) {
    InProcChannel ch(server_);
    EXPECT_EQ(call_expect_error(ch, MsgType::kHello, [&](Buffer& p) {
      p.append_u8(version);
      p.append_varint(7);
      p.append_varint(1);
    }), ErrorCode::kProtocol);
  }
}

TEST_F(Protocol, UnboundHandleIsProtocolError) {
  InProcChannel ch(server_);
  open(ch, "p/bound");
  for (uint64_t handle : {uint64_t{0}, uint64_t{handle_of("p/bound") + 1},
                          uint64_t{UINT32_MAX}}) {
    EXPECT_EQ(call_expect_error(ch, MsgType::kAcquireWrite, [&](Buffer& p) {
      p.append_varint(handle);
      p.append_varint(0);
    }), ErrorCode::kProtocol) << handle;
  }
  // A handle wider than 32 bits is malformed, not a lookup.
  EXPECT_EQ(call_expect_error(ch, MsgType::kSubscribe, [](Buffer& p) {
    p.append_varint(uint64_t{1} << 40);
  }), ErrorCode::kProtocol);
  // Another session's binding is not this one's.
  InProcChannel other(server_);
  EXPECT_EQ(call_expect_error(other, MsgType::kAcquireRead, [](Buffer& p) {
    p.append_varint(handle_of("p/bound"));
    p.append_varint(0);
    p.append_u8(static_cast<uint8_t>(CoherenceModel::kFull));
    p.append_varint(0);
  }), ErrorCode::kProtocol);
  // The bound handle still works.
  call(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/bound"));
    p.append_varint(0);
  });
}

TEST_F(Protocol, RebindingHandleToAnotherNameIsProtocolError) {
  InProcChannel ch(server_);
  ch.call(MsgType::kHello, hello_payload());
  auto open_as = [&](uint32_t handle, const std::string& name) {
    return call(ch, MsgType::kOpenSegment, [&](Buffer& p) {
      p.append_varint(handle);
      p.append_vstring(name);
      p.append_u8(1);
    });
  };
  open_as(5, "p/first");
  open_as(5, "p/first");  // the same binding again is harmless
  try {
    open_as(5, "p/second");
    ADD_FAILURE() << "handle 5 was rebound";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
  EXPECT_EQ(call_expect_error(ch, MsgType::kSegmentInfo, [](Buffer& p) {
    p.append_varint(5);
    p.append_vstring("p/second");
  }), ErrorCode::kProtocol);
  // A hello that binds one handle twice, to two names, is refused too.
  InProcChannel fresh(server_);
  EXPECT_EQ(call_expect_error(fresh, MsgType::kHello, [](Buffer& p) {
    p.append_u8(kProtocolVersion);
    p.append_varint(3);
    p.append_varint(2);
    p.append_varint(2);
    p.append_varint(1);
    p.append_vstring("p/first");
    p.append_varint(1);
    p.append_vstring("p/second");
  }), ErrorCode::kProtocol);
  // Handle 0 binds nothing, whatever it names.
  open_as(0, "p/second");
  open_as(0, "p/first");
  EXPECT_EQ(call_expect_error(ch, MsgType::kSubscribe,
                              [](Buffer& p) { p.append_varint(0); }),
            ErrorCode::kProtocol);
}

TEST_F(Protocol, BindingAHandleRequiresHello) {
  // Handle 0 binds nothing, so a one-shot probe needs no hello: it creates
  // the segment and reads its metadata.
  InProcChannel ch(server_);
  call(ch, MsgType::kOpenSegment, [](Buffer& p) {
    p.append_varint(0);
    p.append_vstring("p/versioned");
    p.append_u8(1);
  });
  Frame info = call(ch, MsgType::kSegmentInfo, [](Buffer& p) {
    p.append_varint(0);
    p.append_vstring("p/versioned");
  });
  EXPECT_EQ(info.type, MsgType::kSegmentInfoResp);
  EXPECT_EQ(info.reader().read_varint32(), 1u);  // version

  // Any other handle is bound only on a session that passed the version
  // check, by either binding frame.
  const uint32_t handle = handle_of("p/versioned");
  EXPECT_EQ(call_expect_error(ch, MsgType::kOpenSegment, [&](Buffer& p) {
    p.append_varint(handle);
    p.append_vstring("p/versioned");
    p.append_u8(1);
  }), ErrorCode::kProtocol);
  EXPECT_EQ(call_expect_error(ch, MsgType::kSegmentInfo, [&](Buffer& p) {
    p.append_varint(handle);
    p.append_vstring("p/versioned");
  }), ErrorCode::kProtocol);
  // Neither refusal left a binding behind.
  EXPECT_EQ(call_expect_error(ch, MsgType::kSubscribe, [&](Buffer& p) {
    p.append_varint(handle);
  }), ErrorCode::kProtocol);

  // After the hello the same frames bind the handle.
  ch.call(MsgType::kHello, hello_payload());
  call(ch, MsgType::kSegmentInfo, [&](Buffer& p) {
    p.append_varint(handle);
    p.append_vstring("p/versioned");
  });
  call(ch, MsgType::kSubscribe, [&](Buffer& p) { p.append_varint(handle); });
}

TEST_F(Protocol, CloseSegmentUnbindsHandle) {
  InProcChannel ch(server_);
  open(ch, "p/closing");
  call(ch, MsgType::kCloseSegment,
       [](Buffer& p) { p.append_varint(handle_of("p/closing")); });
  EXPECT_EQ(call_expect_error(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/closing"));
    p.append_varint(0);
  }), ErrorCode::kProtocol);
  EXPECT_EQ(call_expect_error(ch, MsgType::kCloseSegment, [](Buffer& p) {
    p.append_varint(handle_of("p/closing"));
  }), ErrorCode::kProtocol);
  // Unbound, the handle may name another segment.
  call(ch, MsgType::kOpenSegment, [](Buffer& p) {
    p.append_varint(handle_of("p/closing"));
    p.append_vstring("p/reopened");
    p.append_u8(1);
  });
  call(ch, MsgType::kAcquireWrite, [](Buffer& p) {
    p.append_varint(handle_of("p/closing"));
    p.append_varint(0);
  });
  EXPECT_EQ(server_.segment_version("p/reopened"), 1u);
}

}  // namespace
}  // namespace iw
