#include "wire/translate.hpp"

#include "wire/translate_engine.hpp"

namespace iw {

std::string_view TranslationHooks::read_string(const void*, uint32_t,
                                               uint32_t) {
  throw Error(ErrorCode::kState, "out-of-line string unit without hooks");
}

void TranslationHooks::write_string(void*, uint32_t, uint32_t,
                                    std::string_view) {
  throw Error(ErrorCode::kState, "out-of-line string unit without hooks");
}

PointerUnit read_pointer_unit_rest(uint64_t head, BufReader& in) {
  PointerUnit p;
  if (head == 0) return p;
  if ((head & 3) == 1) {
    throw Error(ErrorCode::kProtocol,
                "pointer names block serial " + std::to_string(head >> 2));
  }
  if (head == 2) {
    p.tag = PointerTag::kCross;
    p.mip = in.read_vstring_view();
    if (p.mip.empty()) {
      throw Error(ErrorCode::kProtocol, "empty cross-segment pointer");
    }
    return p;
  }
  throw Error(ErrorCode::kProtocol,
              "unknown pointer tag " + std::to_string(head & 3));
}

PointerUnit NumericOnlyHooks::swizzle_out(const void*, uint32_t) {
  throw Error(ErrorCode::kState, "pointer unit with NumericOnlyHooks");
}
void NumericOnlyHooks::swizzle_in(BufReader&, void*, uint32_t) {
  throw Error(ErrorCode::kState, "pointer unit with NumericOnlyHooks");
}

void encode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  const void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, Buffer& out) {
  translate_engine::encode(type, rules, base, begin, end, hooks, out);
}

void decode_units(const TypeDescriptor& type, const LayoutRules& rules,
                  void* base, uint64_t begin, uint64_t end,
                  TranslationHooks& hooks, BufReader& in) {
  translate_engine::decode(type, rules, base, begin, end, hooks, in);
}

std::optional<uint64_t> fixed_wire_size(const TypeDescriptor& type,
                                        const LayoutRules& rules,
                                        uint64_t begin, uint64_t end) {
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  if (plan.variable()) return std::nullopt;
  if (begin >= end) return 0;
  return plan.fixed_wire_offset_of(end) - plan.fixed_wire_offset_of(begin);
}

uint64_t measure_units(const TypeDescriptor& type, const LayoutRules& rules,
                       const void* base, uint64_t begin, uint64_t end,
                       TranslationHooks& hooks) {
  if (begin >= end) return 0;
  const TranslationPlan& plan = TranslationPlan::of(type, rules);
  if (!plan.variable()) {
    return plan.fixed_wire_offset_of(end) - plan.fixed_wire_offset_of(begin);
  }
  Buffer scratch;
  translate_engine::encode_planned(plan, static_cast<const uint8_t*>(base),
                                   begin, end, hooks, scratch);
  return scratch.size();
}

}  // namespace iw
