// Figure 4: client cost to translate 1 MB of data, for nine data shapes.
//
// Series (one benchmark per shape each):
//   RPC_XDR_collect / RPC_XDR_apply — rpcgen-style marshal / unmarshal
//   IW_collect_block / IW_apply_block — InterWeave no-diff mode
//   IW_collect_diff  / IW_apply_diff  — InterWeave with twins + diffing
//     (collect rows carry translate_us and lz_us columns: the part of each
//     collect spent in wire translation, and in the LZ pass)
//   IW_server_apply / IW_server_collect — server-side costs (§4.1 text)
//
// Times are phase-isolated via the library's instrumentation counters
// (manual time), so transport and untimed mutation are excluded — matching
// what the paper measures. Shape to expect: block mode beats RPC by ~25%
// on average; diff mode is comparable to RPC; RPC is disproportionately bad
// on pointer and small_string (per-element deep copies and strlen/padding).
#include <benchmark/benchmark.h>

#include "interweave/interweave.hpp"
#include "shapes.hpp"

namespace iw::bench {
namespace {

using client::TrackingMode;

/// Everything needed to run one shape against a live server.
struct IwRig {
  explicit IwRig(const Shape& shape, TrackingMode mode)
      : writer_options(make_options(mode)),
        reader_options(make_options(TrackingMode::kAuto)),
        writer(
            [this](const std::string&) {
              return std::make_shared<InProcChannel>(server);
            },
            writer_options),
        reader(
            [this](const std::string&) {
              return std::make_shared<InProcChannel>(server);
            },
            reader_options) {
    const TypeDescriptor* type = shape.type(writer.types());
    seg_w = writer.open_segment("bench/" + shape.name);
    writer.write_lock(seg_w);
    // Pointer-bearing shapes need a target block to point at.
    const TypeDescriptor* int_t = writer.types().primitive(PrimitiveKind::kInt32);
    targets = static_cast<int32_t*>(writer.malloc_block(
        seg_w, writer.types().array_of(int_t, kTargets), "targets"));
    for (uint32_t i = 0; i < kTargets; ++i) targets[i] = static_cast<int32_t>(i);
    base = static_cast<uint8_t*>(writer.malloc_block(seg_w, type, "data"));
    fill = make_fill(shape);
    fill(base, 0);
    writer.write_unlock(seg_w);

    seg_r = reader.open_segment("bench/" + shape.name);
    reader.read_lock(seg_r);
    reader.read_unlock(seg_r);
  }

  static client::Client::Options make_options(TrackingMode mode) {
    client::Client::Options options;
    options.tracking = mode;
    return options;
  }

  /// Shape fills that involve pointers are bound to this rig's targets.
  std::function<void(uint8_t*, uint64_t)> make_fill(const Shape& shape) {
    if (shape.fill != nullptr) return shape.fill;
    int32_t* t = targets;
    if (shape.name == "pointer") {
      return [t](uint8_t* b, uint64_t salt) {
        auto** p = reinterpret_cast<int32_t**>(b);
        for (uint64_t i = 0; i < 131072; ++i) {
          p[i] = t + (i + salt) % kTargets;
        }
      };
    }
    return [t](uint8_t* b, uint64_t salt) {  // mix
      auto* m = reinterpret_cast<detail::Mix*>(b);
      for (uint64_t i = 0; i < 10922; ++i) {
        m[i].i = static_cast<int32_t>(i + salt);
        m[i].d = static_cast<double>(i) + 0.5 * static_cast<double>(salt);
        detail::fill_string(m[i].s, sizeof m[i].s, 63, salt + i);
        detail::fill_string(m[i].ss, sizeof m[i].ss, 3, salt + i);
        m[i].p = t + (i + salt) % kTargets;
      }
    };
  }

  static constexpr uint32_t kTargets = 1024;

  server::SegmentServer server;
  client::Client::Options writer_options;
  client::Client::Options reader_options;
  Client writer;
  Client reader;
  ClientSegment* seg_w = nullptr;
  ClientSegment* seg_r = nullptr;
  int32_t* targets = nullptr;
  uint8_t* base = nullptr;
  std::function<void(uint8_t*, uint64_t)> fill;
};

/// Plain-memory setup for the RPC baseline (deep-copy targets included).
struct RpcRig {
  explicit RpcRig(const Shape& shape)
      : storage(kShapeBytes + 64), targets(1024) {
    base = storage.data();
    for (size_t i = 0; i < targets.size(); ++i) {
      targets[i] = static_cast<int32_t>(i);
    }
    if (shape.fill != nullptr) {
      fill = shape.fill;
    } else if (shape.name == "pointer") {
      int32_t* t = targets.data();
      fill = [t](uint8_t* b, uint64_t salt) {
        auto** p = reinterpret_cast<int32_t**>(b);
        for (uint64_t i = 0; i < 131072; ++i) p[i] = t + (i + salt) % 1024;
      };
    } else {
      int32_t* t = targets.data();
      fill = [t](uint8_t* b, uint64_t salt) {
        auto* m = reinterpret_cast<detail::Mix*>(b);
        for (uint64_t i = 0; i < 10922; ++i) {
          m[i].i = static_cast<int32_t>(i + salt);
          m[i].d = static_cast<double>(i);
          detail::fill_string(m[i].s, sizeof m[i].s, 63, salt + i);
          detail::fill_string(m[i].ss, sizeof m[i].ss, 3, salt + i);
          m[i].p = t + (i + salt) % 1024;
        }
      };
    }
    fill(base, 0);
  }
  std::vector<uint8_t> storage;
  std::vector<int32_t> targets;
  uint8_t* base;
  std::function<void(uint8_t*, uint64_t)> fill;
};

void bm_rpc_collect(benchmark::State& state, Shape shape) {
  RpcRig rig(shape);
  for (auto _ : state) {
    Buffer out(kShapeBytes + kShapeBytes / 2);
    rpc::Xdr xdr(out);
    bool ok = shape.xdr(xdr, rig.base);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
}

void bm_rpc_apply(benchmark::State& state, Shape shape) {
  RpcRig rig(shape);
  Buffer wire(kShapeBytes * 2);
  {
    rpc::Xdr enc(wire);
    if (!shape.xdr(enc, rig.base)) {
      state.SkipWithError("encode failed");
      return;
    }
  }
  for (auto _ : state) {
    BufReader r(wire.span());
    rpc::Xdr dec(r);
    bool ok = shape.xdr(dec, rig.base);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
}

void bm_iw_collect(benchmark::State& state, Shape shape, TrackingMode mode) {
  IwRig rig(shape, mode);
  uint64_t salt = 1;
  uint64_t translate_ns = 0;
  uint64_t lz_ns = 0;
  for (auto _ : state) {
    rig.writer.write_lock(rig.seg_w);
    rig.fill(rig.base, salt++);
    const client::ClientStats before = rig.writer.stats();
    rig.writer.write_unlock(rig.seg_w);
    const client::ClientStats after = rig.writer.stats();
    translate_ns += after.translate_ns - before.translate_ns;
    lz_ns += after.compress_ns - before.compress_ns;
    state.SetIterationTime(
        static_cast<double>(after.collect_ns - before.collect_ns) * 1e-9);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
  // Collect, split: wire translation (the paper's comparison with XDR) and
  // the LZ pass over the section (which the paper did not have), in us per
  // iteration (per MB). Word diffing and framing make up the rest.
  state.counters["translate_us"] = benchmark::Counter(
      static_cast<double>(translate_ns) * 1e-3,
      benchmark::Counter::kAvgIterations);
  state.counters["lz_us"] = benchmark::Counter(
      static_cast<double>(lz_ns) * 1e-3, benchmark::Counter::kAvgIterations);
}

void bm_iw_apply(benchmark::State& state, Shape shape, TrackingMode mode) {
  IwRig rig(shape, mode);
  uint64_t salt = 1;
  for (auto _ : state) {
    rig.writer.write_lock(rig.seg_w);
    rig.fill(rig.base, salt++);
    rig.writer.write_unlock(rig.seg_w);
    uint64_t before = rig.reader.stats().apply_ns;
    rig.reader.read_lock(rig.seg_r);
    rig.reader.read_unlock(rig.seg_r);
    state.SetIterationTime(
        static_cast<double>(rig.reader.stats().apply_ns - before) * 1e-9);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
}

void bm_server_apply(benchmark::State& state, Shape shape) {
  IwRig rig(shape, TrackingMode::kNoDiff);
  uint64_t salt = 1;
  for (auto _ : state) {
    rig.writer.write_lock(rig.seg_w);
    rig.fill(rig.base, salt++);
    uint64_t before =
        rig.server.segment_stats("bench/" + shape.name).apply_ns;
    rig.writer.write_unlock(rig.seg_w);
    state.SetIterationTime(
        static_cast<double>(
            rig.server.segment_stats("bench/" + shape.name).apply_ns -
            before) *
        1e-9);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
}

void bm_server_collect(benchmark::State& state, Shape shape) {
  // Diff cache off so the server actually rebuilds the diff per request.
  server::SegmentServer::Options so;
  so.store.enable_diff_cache = false;
  server::SegmentServer server(so);
  client::Client::Options wo;
  wo.tracking = TrackingMode::kNoDiff;
  Client writer(
      [&](const std::string&) { return std::make_shared<InProcChannel>(server); },
      wo);
  const TypeDescriptor* type = shape.type(writer.types());
  ClientSegment* seg = writer.open_segment("bench/" + shape.name);
  writer.write_lock(seg);
  const TypeDescriptor* int_t = writer.types().primitive(PrimitiveKind::kInt32);
  auto* targets = static_cast<int32_t*>(writer.malloc_block(
      seg, writer.types().array_of(int_t, IwRig::kTargets), "targets"));
  auto* base = static_cast<uint8_t*>(writer.malloc_block(seg, type, "data"));
  IwRig* dummy = nullptr;
  (void)dummy;
  std::function<void(uint8_t*, uint64_t)> fill;
  if (shape.fill) {
    fill = shape.fill;
  } else if (shape.name == "pointer") {
    fill = [targets](uint8_t* b, uint64_t salt) {
      auto** p = reinterpret_cast<int32_t**>(b);
      for (uint64_t i = 0; i < 131072; ++i) {
        p[i] = targets + (i + salt) % IwRig::kTargets;
      }
    };
  } else {
    fill = [targets](uint8_t* b, uint64_t salt) {
      auto* m = reinterpret_cast<detail::Mix*>(b);
      for (uint64_t i = 0; i < 10922; ++i) {
        m[i].i = static_cast<int32_t>(i + salt);
        m[i].d = static_cast<double>(i);
        detail::fill_string(m[i].s, sizeof m[i].s, 63, salt + i);
        detail::fill_string(m[i].ss, sizeof m[i].ss, 3, salt + i);
        m[i].p = targets + (i + salt) % IwRig::kTargets;
      }
    };
  }
  fill(base, 0);
  writer.write_unlock(seg);

  // Fresh reader per iteration forces a from-0 full collection.
  for (auto _ : state) {
    Client reader([&](const std::string&) {
      return std::make_shared<InProcChannel>(server);
    });
    ClientSegment* rs = reader.open_segment("bench/" + shape.name);
    uint64_t before = server.segment_stats("bench/" + shape.name).collect_ns;
    reader.read_lock(rs);
    reader.read_unlock(rs);
    state.SetIterationTime(
        static_cast<double>(
            server.segment_stats("bench/" + shape.name).collect_ns - before) *
        1e-9);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShapeBytes);
}

void register_all() {
  // The installed google-benchmark takes const char* names; it copies them.
  auto reg = [](const std::string& name, auto fn, auto... args) {
    // Keep default runs quick: per-iteration work is large (1 MB), so a
    // short measuring window is already stable.
    return benchmark::RegisterBenchmark(name.c_str(), fn, args...)
        ->MinTime(0.05);
  };
  for (const Shape& shape : make_shapes()) {
    reg("fig4/RPC_XDR_collect/" + shape.name, bm_rpc_collect, shape);
    reg("fig4/RPC_XDR_apply/" + shape.name, bm_rpc_apply, shape);
    reg("fig4/IW_collect_block/" + shape.name, bm_iw_collect, shape,
        TrackingMode::kNoDiff)
        ->UseManualTime();
    reg("fig4/IW_collect_diff/" + shape.name, bm_iw_collect, shape,
        TrackingMode::kVmDiff)
        ->UseManualTime();
    reg("fig4/IW_apply_block/" + shape.name, bm_iw_apply, shape,
        TrackingMode::kNoDiff)
        ->UseManualTime();
    reg("fig4/IW_apply_diff/" + shape.name, bm_iw_apply, shape,
        TrackingMode::kVmDiff)
        ->UseManualTime();
    reg("fig4/IW_server_apply/" + shape.name, bm_server_apply, shape)
        ->UseManualTime();
    reg("fig4/IW_server_collect/" + shape.name, bm_server_collect, shape)
        ->UseManualTime();
  }
}

}  // namespace
}  // namespace iw::bench

int main(int argc, char** argv) {
  iw::bench::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
