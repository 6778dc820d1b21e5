// Plan-compiled translation throughput: planned engine vs the legacy
// recursive walk, on the two layouts that matter.
//
//   packed_canonical — local layout byte-identical to the wire (isomorphic):
//                      the plan collapses any unit range to one memcpy.
//   native           — little-endian x86-64 layout: every multi-byte unit is
//                      byte-swapped, so the plan runs its straight-line swap
//                      loops (no memcpy shortcut possible).
//
// The workload is a large array of a dense mixed-numeric struct (40 wire
// bytes per element, several primitive runs after isomorphic field
// collapsing), the shape where translation throughput is bandwidth-bound.
// Both engines' outputs are verified byte-identical before timing.
//
// Plain binary; emits one JSON document on stdout.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/rand.hpp"
#include "translate_legacy.hpp"

namespace iw::bench {
namespace {

constexpr uint64_t kElems = 400000;  // x 40 wire bytes = 16 MB
constexpr int kReps = 9;

const TypeDescriptor* build_type(TypeRegistry& reg) {
  const TypeDescriptor* elem = reg.struct_builder("dense40")
      .field("a", reg.primitive(PrimitiveKind::kFloat64))
      .field("b", reg.primitive(PrimitiveKind::kFloat64))
      .field("c", reg.primitive(PrimitiveKind::kInt64))
      .field("d", reg.primitive(PrimitiveKind::kInt32))
      .field("e", reg.primitive(PrimitiveKind::kInt32))
      .field("f", reg.primitive(PrimitiveKind::kInt16))
      .field("g", reg.primitive(PrimitiveKind::kInt16))
      .field("h", reg.array_of(reg.primitive(PrimitiveKind::kChar), 4))
      .finish();
  return reg.array_of(elem, kElems);
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

using EncodeFn = void (*)(const TypeDescriptor&, const LayoutRules&,
                          const void*, uint64_t, uint64_t, TranslationHooks&,
                          Buffer&);
using DecodeFn = void (*)(const TypeDescriptor&, const LayoutRules&, void*,
                          uint64_t, uint64_t, TranslationHooks&, BufReader&);

/// Best-of-kReps throughput in MB/s (decimal megabytes, matching the
/// paper), for the planned and legacy engines. Reps are interleaved and
/// the within-rep order alternates; both engines share one output buffer.
/// All three measures keep cache history and working-set size identical —
/// these translation loops are bandwidth-bound, and whichever engine
/// runs with warmer lines otherwise wins by 10-30% regardless of code.
struct Pair {
  double planned, legacy;
};

Pair encode_pair(const TypeDescriptor& type, const LayoutRules& rules,
                 const uint8_t* mem, TranslationHooks& hooks) {
  EncodeFn fns[2] = {encode_units, encode_units_legacy};
  Buffer out;
  Pair best{0, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      int which = (rep + k) % 2;
      out.clear();
      double t0 = now_s();
      fns[which](type, rules, mem, 0, type.prim_units(), hooks, out);
      double dt = now_s() - t0;
      double mbps = static_cast<double>(out.size()) / 1e6 / dt;
      if (getenv("IW_BENCH_TRACE"))
        std::fprintf(stderr, "enc rep%d pos%d %s %.0f\n", rep, k,
                     which == 0 ? "planned" : "legacy", mbps);
      double& slot = which == 0 ? best.planned : best.legacy;
      if (mbps > slot) slot = mbps;
    }
  }
  return best;
}

Pair decode_pair(const TypeDescriptor& type, const LayoutRules& rules,
                 std::span<const uint8_t> wire, uint8_t* mem,
                 TranslationHooks& hooks) {
  DecodeFn fns[2] = {decode_units, decode_units_legacy};
  Pair best{0, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      int which = (rep + k) % 2;
      BufReader in(wire);
      double t0 = now_s();
      fns[which](type, rules, mem, 0, type.prim_units(), hooks, in);
      double dt = now_s() - t0;
      double mbps = static_cast<double>(wire.size()) / 1e6 / dt;
      double& slot = which == 0 ? best.planned : best.legacy;
      if (mbps > slot) slot = mbps;
    }
  }
  return best;
}

struct LayoutResult {
  const char* layout;
  bool isomorphic;
  double enc_planned, enc_legacy, dec_planned, dec_legacy;
};

LayoutResult run_layout(const char* name, const LayoutRules& rules) {
  TypeRegistry reg(rules);
  const TypeDescriptor* type = build_type(reg);
  std::vector<uint8_t> mem(type->local_size());
  SplitMix64 rng(42);
  for (auto& b : mem) b = static_cast<uint8_t>(rng());

  NumericOnlyHooks hooks;

  // Correctness gate: the two engines must agree byte-for-byte.
  Buffer planned, legacy;
  encode_units(*type, rules, mem.data(), 0, type->prim_units(), hooks,
               planned);
  encode_units_legacy(*type, rules, mem.data(), 0, type->prim_units(), hooks,
                      legacy);
  if (planned.size() != legacy.size() ||
      std::memcmp(planned.data(), legacy.data(), planned.size()) != 0) {
    std::fprintf(stderr, "FATAL: planned/legacy encode mismatch on %s\n",
                 name);
    std::abort();
  }

  LayoutResult r{};
  r.layout = name;
  reg.reset_translation_stats();
  Pair enc = encode_pair(*type, rules, mem.data(), hooks);
  r.enc_planned = enc.planned;
  r.enc_legacy = enc.legacy;
  r.isomorphic = reg.translation_stats().isomorphic_fast_path_blocks > 0;

  std::vector<uint8_t> dst(mem.size());
  Pair dec = decode_pair(*type, rules, planned.span(), dst.data(), hooks);
  r.dec_planned = dec.planned;
  r.dec_legacy = dec.legacy;
  if (std::memcmp(dst.data(), mem.data(), mem.size()) != 0) {
    std::fprintf(stderr, "FATAL: decode corrupted data on %s\n", name);
    std::abort();
  }
  return r;
}

void emit(const LayoutResult& r, bool last) {
  // Round-trip: time to encode then decode one byte, planned vs legacy.
  double rt = (1.0 / r.enc_legacy + 1.0 / r.dec_legacy) /
              (1.0 / r.enc_planned + 1.0 / r.dec_planned);
  std::printf(
      "    {\"layout\": \"%s\", \"isomorphic\": %s,\n"
      "     \"encode_planned_mbps\": %.1f, \"encode_legacy_mbps\": %.1f,\n"
      "     \"decode_planned_mbps\": %.1f, \"decode_legacy_mbps\": %.1f,\n"
      "     \"encode_speedup\": %.2f, \"decode_speedup\": %.2f,\n"
      "     \"roundtrip_speedup\": %.2f}%s\n",
      r.layout, r.isomorphic ? "true" : "false", r.enc_planned, r.enc_legacy,
      r.dec_planned, r.dec_legacy, r.enc_planned / r.enc_legacy,
      r.dec_planned / r.dec_legacy, rt, last ? "" : ",");
}

int run() {
  LayoutResult iso = run_layout("packed_canonical",
                                LayoutRules::packed_canonical());
  LayoutResult swapped = run_layout("native", Platform::native().rules);
  std::printf("{\n  \"bench\": \"translate_plan\",\n");
  std::printf("  \"elements\": %llu, \"wire_bytes\": %llu,\n",
              static_cast<unsigned long long>(kElems),
              static_cast<unsigned long long>(kElems * 40));
  std::printf("  \"results\": [\n");
  emit(iso, false);
  emit(swapped, true);
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace iw::bench

int main() { return iw::bench::run(); }
